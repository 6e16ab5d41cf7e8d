// Package faultinject is a deterministic fault-injection harness for
// PIEO backends. It exists to make the failure model of DESIGN.md §8
// testable: every fault it produces — injected errors and capacity
// squeezes — fires on a programmable operation-count schedule derived
// from a seed, so a chaos run that finds a bug replays bit-for-bit from
// its Plan.
//
// Wrap adapts any backend.Backend, intercepting operations before they
// reach the real implementation. Injected enqueue failures are recorded
// as DECLARED DROPS (the arrival never entered the list), which is what
// lets a conservation auditor reconcile exactly: accepted = dequeued +
// still-queued, with every refused arrival in DeclaredDrops.
//
// Determinism: the schedule is a function of (Seed, operation ordinal)
// only. Under a single-threaded driver that makes whole runs replayable;
// under concurrent callers the ordinal interleaving varies but the fault
// DENSITY is preserved.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// ErrInjected is the typed error injected operations fail with. It is
// deliberately distinct from every contract error (core.ErrFull,
// core.ErrDuplicate) so layers under test can prove
// they pass unknown errors through rather than misclassifying them.
var ErrInjected = errors.New("faultinject: injected fault")

// Plan is a deterministic fault schedule. Zero values disable each fault
// class; "every N" means operation ordinals where (ordinal+offset)%N == 0,
// with the offset derived from Seed so two identically-shaped plans with
// different seeds fire on different ops.
type Plan struct {
	// Seed phase-shifts every schedule.
	Seed uint64
	// ErrorEvery injects ErrInjected on every Nth intercepted mutation.
	ErrorEvery uint64
	// SqueezeEvery starts a capacity squeeze on every Nth enqueue: for
	// the next SqueezeLen enqueues the wrapper reports core.ErrFull
	// regardless of actual occupancy, emulating transient overload.
	SqueezeEvery uint64
	// SqueezeLen is the squeeze duration in enqueues (default 1).
	SqueezeLen uint64
}

// Injector evaluates a Plan against monotonically increasing operation
// ordinals. It is safe for concurrent use.
type Injector struct {
	plan Plan
	n    atomic.Uint64 // operation ordinal
	sqN  atomic.Uint64 // enqueue ordinal, drives squeeze windows

	injected atomic.Uint64 // errors injected
	squeezes atomic.Uint64 // enqueues squeezed

	armed atomic.Bool
}

// NewInjector builds an Injector for plan with defaults applied.
func NewInjector(plan Plan) *Injector {
	if plan.SqueezeLen == 0 {
		plan.SqueezeLen = 1
	}
	inj := &Injector{plan: plan}
	inj.armed.Store(true)
	return inj
}

// Disarm stops all fault production (counters survive). Chaos tests call
// it between the fault phase and the audit.
func (inj *Injector) Disarm() { inj.armed.Store(false) }

// Stats reports how many faults of each class have fired.
type Stats struct {
	Injected uint64 // ErrInjected errors
	Squeezes uint64 // squeezed enqueues
	Ops      uint64 // operations observed
}

// Stats returns the injector's fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Injected: inj.injected.Load(),
		Squeezes: inj.squeezes.Load(),
		Ops:      inj.n.Load(),
	}
}

// fires reports whether a schedule with period every fires at ordinal n,
// phase-shifted by the seed.
func (inj *Injector) fires(n, every uint64) bool {
	if every == 0 {
		return false
	}
	return (n+inj.plan.Seed)%every == 0
}

// step advances the operation ordinal: every intercepted mutation is one
// schedulable operation.
func (inj *Injector) step() uint64 { return inj.n.Add(1) }

// errNow reports whether the error schedule fires at ordinal n.
func (inj *Injector) errNow(n uint64) bool {
	if !inj.armed.Load() || !inj.fires(n, inj.plan.ErrorEvery) {
		return false
	}
	inj.injected.Add(1)
	return true
}

// squeezeNow reports whether the enqueue at this moment falls inside a
// capacity-squeeze window.
func (inj *Injector) squeezeNow() bool {
	if !inj.armed.Load() || inj.plan.SqueezeEvery == 0 {
		return false
	}
	sq := inj.sqN.Add(1)
	phase := (sq + inj.plan.Seed) % inj.plan.SqueezeEvery
	if phase < inj.plan.SqueezeLen {
		inj.squeezes.Add(1)
		return true
	}
	return false
}

// Backend wraps a backend.Backend with an Injector's fault schedule.
// Mutations advance the operation ordinal; enqueues also face the error
// and squeeze schedules BEFORE reaching the inner backend, so every
// injected enqueue failure corresponds to an arrival that never entered
// the list — recorded as a declared drop.
type Backend struct {
	inner backend.Backend
	inj   *Injector

	mu      sync.Mutex
	dropped []uint32 // IDs of arrivals shed by injected enqueue faults
}

// Wrap builds a fault-injecting view of inner driven by inj.
func Wrap(inner backend.Backend, inj *Injector) *Backend {
	return &Backend{inner: inner, inj: inj}
}

// DeclaredDrops returns the IDs of arrivals the fault layer shed, in
// order. The conservation audit adds these to the delivered set.
func (b *Backend) DeclaredDrops() []uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]uint32, len(b.dropped))
	copy(out, b.dropped)
	return out
}

func (b *Backend) recordDrop(id uint32) {
	b.mu.Lock()
	b.dropped = append(b.dropped, id)
	b.mu.Unlock()
}

// Enqueue implements backend.Backend with the full fault gauntlet.
func (b *Backend) Enqueue(e core.Entry) error {
	n := b.inj.step()
	if b.inj.errNow(n) {
		b.recordDrop(e.ID)
		return ErrInjected
	}
	if b.inj.squeezeNow() {
		b.recordDrop(e.ID)
		return core.ErrFull
	}
	return b.inner.Enqueue(e)
}

// Dequeue implements backend.Backend.
func (b *Backend) Dequeue(now clock.Time) (core.Entry, bool) {
	b.inj.step()
	return b.inner.Dequeue(now)
}

// DequeueFlow implements backend.Backend.
func (b *Backend) DequeueFlow(id uint32) (core.Entry, bool) {
	b.inj.step()
	return b.inner.DequeueFlow(id)
}

// DequeueRange implements backend.Backend.
func (b *Backend) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	b.inj.step()
	return b.inner.DequeueRange(now, lo, hi)
}

// Len implements backend.Backend (never faulted: audits depend on it).
func (b *Backend) Len() int { return b.inner.Len() }

// Contains implements backend.Backend (never faulted).
func (b *Backend) Contains(id uint32) bool { return b.inner.Contains(id) }

// MinSendTime implements backend.Backend (never faulted).
func (b *Backend) MinSendTime() (clock.Time, bool) { return b.inner.MinSendTime() }

// Snapshot implements backend.Backend (never faulted).
func (b *Backend) Snapshot() []core.Entry { return b.inner.Snapshot() }

// Stats implements backend.Backend.
func (b *Backend) Stats() backend.Stats { return b.inner.Stats() }

// NextWakeAfter implements backend.Backend (never faulted).
func (b *Backend) NextWakeAfter(now clock.Time) clock.Time { return b.inner.NextWakeAfter(now) }

// CheckInvariants validates the inner backend, bypassing fault schedules
// — the auditor must see the truth.
func (b *Backend) CheckInvariants() error { return b.inner.CheckInvariants() }

// UpdateRank implements backend.Backend; a rank update is never turned
// into an error (there is no arrival to shed).
func (b *Backend) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	b.inj.step()
	return b.inner.UpdateRank(id, rank, sendTime)
}

// PeekMax implements backend.Backend (never faulted).
func (b *Backend) PeekMax() (core.Entry, bool) { return b.inner.PeekMax() }

// EvictMax implements backend.Backend (never faulted).
func (b *Backend) EvictMax() (core.Entry, bool) { return b.inner.EvictMax() }

var _ backend.Backend = (*Backend)(nil)
