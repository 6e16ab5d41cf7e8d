// Package faultinject is a deterministic fault-injection harness for
// PIEO backends and the sharded engine. It exists to make the failure
// model of DESIGN.md §8 testable: every fault it produces — injected
// errors, capacity squeezes, induced panics, artificial latency — fires
// on a programmable operation-count schedule derived from a seed, so a
// chaos run that finds a bug replays bit-for-bit from its Plan.
//
// Two integration points:
//
//   - Wrap adapts any backend.Backend, intercepting operations before
//     they reach the real implementation. Injected enqueue failures are
//     recorded as DECLARED DROPS (the arrival never entered the list),
//     which is what lets a conservation auditor reconcile exactly:
//     accepted = dequeued + still-queued, with every shortfall accounted
//     to either DeclaredDrops here or declared losses in the layer under
//     test.
//   - Injector.ShardHook plugs into shard.Engine.SetFaultHook and panics
//     on schedule inside shard-list critical sections, driving the
//     quarantine/salvage/rebuild machinery of internal/shard.
//
// Determinism: the schedule is a function of (Seed, operation ordinal)
// only. Under a single-threaded driver that makes whole runs replayable;
// under a concurrent storm the ordinal interleaving varies but the fault
// DENSITY is preserved, which is what the -race chaos suite needs.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// ErrInjected is the typed error injected operations fail with. It is
// deliberately distinct from every contract error (core.ErrFull,
// core.ErrDuplicate, core.ErrShardDown) so layers under test can prove
// they pass unknown errors through rather than misclassifying them.
var ErrInjected = errors.New("faultinject: injected fault")

// InducedPanic is the panic payload induced faults throw; the quarantine
// fault log stringifies it, so tests can assert provenance.
type InducedPanic struct {
	Op string
	N  uint64 // operation ordinal that fired
}

func (p InducedPanic) String() string {
	return fmt.Sprintf("faultinject: induced panic at op %d (%s)", p.N, p.Op)
}

// Plan is a deterministic fault schedule. Zero values disable each fault
// class; "every N" means operation ordinals where (ordinal+offset)%N == 0,
// with the offset derived from Seed so two identically-shaped plans with
// different seeds fire on different ops.
type Plan struct {
	// Seed phase-shifts every schedule.
	Seed uint64
	// ErrorEvery injects ErrInjected on every Nth intercepted mutation.
	ErrorEvery uint64
	// PanicEvery induces a panic on every Nth intercepted operation
	// (both wrapper operations and shard-hook invocations).
	PanicEvery uint64
	// SqueezeEvery starts a capacity squeeze on every Nth enqueue: for
	// the next SqueezeLen enqueues the wrapper reports core.ErrFull
	// regardless of actual occupancy, emulating transient overload.
	SqueezeEvery uint64
	// SqueezeLen is the squeeze duration in enqueues (default 1).
	SqueezeLen uint64
	// LatencyEvery stalls every Nth operation by LatencyNs to widen race
	// windows under the concurrent chaos suite.
	LatencyEvery uint64
	// LatencyNs is the stall length in nanoseconds (default 1000).
	LatencyNs int64
}

// Injector evaluates a Plan against monotonically increasing operation
// ordinals. It is safe for concurrent use.
type Injector struct {
	plan Plan
	n    atomic.Uint64 // operation ordinal
	sqN  atomic.Uint64 // enqueue ordinal, drives squeeze windows

	injected atomic.Uint64 // errors injected
	panics   atomic.Uint64 // panics induced
	squeezes atomic.Uint64 // enqueues squeezed
	stalls   atomic.Uint64 // latency stalls

	armed atomic.Bool
}

// NewInjector builds an Injector for plan with defaults applied.
func NewInjector(plan Plan) *Injector {
	if plan.SqueezeLen == 0 {
		plan.SqueezeLen = 1
	}
	if plan.LatencyNs == 0 {
		plan.LatencyNs = 1000
	}
	inj := &Injector{plan: plan}
	inj.armed.Store(true)
	return inj
}

// Disarm stops all fault production (counters survive). Chaos tests call
// it between the storm phase and the recovery/audit phase.
func (inj *Injector) Disarm() { inj.armed.Store(false) }

// Arm re-enables fault production.
func (inj *Injector) Arm() { inj.armed.Store(true) }

// Stats reports how many faults of each class have fired.
type Stats struct {
	Injected uint64 // ErrInjected errors
	Panics   uint64 // induced panics
	Squeezes uint64 // squeezed enqueues
	Stalls   uint64 // latency stalls
	Ops      uint64 // operations observed
}

// Stats returns the injector's fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Injected: inj.injected.Load(),
		Panics:   inj.panics.Load(),
		Squeezes: inj.squeezes.Load(),
		Stalls:   inj.stalls.Load(),
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

// step advances the operation ordinal and applies the latency and panic
// schedules. op labels the operation for the panic payload.
func (inj *Injector) step(op string) uint64 {
	n := inj.n.Add(1)
	if !inj.armed.Load() {
		return n
	}
	if inj.fires(n, inj.plan.LatencyEvery) {
		inj.stalls.Add(1)
		time.Sleep(time.Duration(inj.plan.LatencyNs) * time.Nanosecond)
	}
	if inj.fires(n, inj.plan.PanicEvery) {
		inj.panics.Add(1)
		panic(InducedPanic{Op: op, N: n})
	}
	return n
}

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

// ShardHook adapts the injector to shard.Engine.SetFaultHook: every hook
// invocation is one schedulable operation, and the panic schedule fires
// inside the shard's protected section, which is exactly where the
// quarantine machinery must catch it.
func (inj *Injector) ShardHook() func(shard int, op string) {
	return func(shard int, op string) {
		inj.step(fmt.Sprintf("shard%d/%s", shard, op))
	}
}

// faultSource is the schedule evaluation surface the Backend wrapper
// drives: a plain Injector (always-on schedule) or a Storm (scheduled
// time windows) both satisfy it.
type faultSource interface {
	step(op string) uint64
	errNow(n uint64) bool
	squeezeNow() bool
}

// Backend wraps a backend.Backend with a fault schedule (an Injector, or
// a Storm's scheduled windows via WrapStorm). Mutations pass through
// step (latency + panics); enqueues additionally face the error and
// squeeze schedules BEFORE reaching the inner backend, so every injected
// enqueue failure corresponds to an arrival that never entered the list
// — recorded as a declared drop.
type Backend struct {
	inner backend.Backend
	inj   faultSource

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
	n := b.inj.step("enqueue")
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
	b.inj.step("dequeue")
	return b.inner.Dequeue(now)
}

// DequeueFlow implements backend.Backend.
func (b *Backend) DequeueFlow(id uint32) (core.Entry, bool) {
	b.inj.step("dequeue_flow")
	return b.inner.DequeueFlow(id)
}

// DequeueRange implements backend.Backend.
func (b *Backend) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	b.inj.step("dequeue_range")
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

// CheckInvariants validates the inner backend, bypassing fault schedules
// — the auditor must see the truth.
func (b *Backend) CheckInvariants() error { return backend.CheckInvariants(b.inner) }

// UpdateRank implements backend.RankUpdater when the inner backend does;
// the schedule can panic or stall it but a rank update is never turned
// into an error (there is no arrival to shed).
func (b *Backend) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	b.inj.step("update_rank")
	if u, ok := b.inner.(backend.RankUpdater); ok {
		return u.UpdateRank(id, rank, sendTime)
	}
	ok, _ := backend.UpdateRank(b.inner, id, rank, sendTime)
	return ok
}

// PeekMax implements backend.Evictor when the inner backend does.
func (b *Backend) PeekMax() (core.Entry, bool) {
	if ev, ok := b.inner.(backend.Evictor); ok {
		return ev.PeekMax()
	}
	return core.Entry{}, false
}

// EvictMax implements backend.Evictor when the inner backend does.
func (b *Backend) EvictMax() (core.Entry, bool) {
	if ev, ok := b.inner.(backend.Evictor); ok {
		return ev.EvictMax()
	}
	return core.Entry{}, false
}

var (
	_ backend.Backend          = (*Backend)(nil)
	_ backend.RankUpdater      = (*Backend)(nil)
	_ backend.Evictor          = (*Backend)(nil)
	_ backend.InvariantChecker = (*Backend)(nil)
)
