// Package shard holds the type behind pieo.SyncList and
// pieo.ShardedList: one mutex around one paper-exact core.List. It keeps
// its package and ShardedList name because the benchmark names them.
//
// The paper serializes one PIEO operation every four cycles, and its
// "multiple physical PIEOs" (§4.3) are the per-level hierarchy, not a
// concurrent engine. A K-lock engine (flows hash-partitioned over K
// locked lists, dequeue as a tournament over per-shard summaries) ran
// here until it lost every trial to one lock: its bookkeeping cost more
// than the lock it avoided, and under real parallelism it returned ranks
// out of order. DESIGN.md ("Why there is no concurrent engine") holds
// the measurements. Callers that want parallelism run one list per core
// with flows pinned by the classifier's hash; callers that must share
// one list take this one.
//
// Every operation takes the lock, so the engine is linearizable and
// answers exactly as one core.List of the same capacity: same Snapshot,
// same Stats, same HardwareStats.
package shard

import (
	"fmt"
	"sync"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// maxShards bounds the accepted shard count.
const maxShards = 64

// Engine is a core.List behind one mutex.
type Engine struct {
	mu sync.Mutex
	l  backend.CoreList
}

// New creates an engine of capacity n. The shard count k must lie in
// [0, 64]; it is validated and then ignored, so the geometry is core's
// ⌈√n⌉ whatever k is.
func New(n, k int) *Engine {
	if n <= 0 {
		panic(fmt.Sprintf("shard: capacity must be positive, got %d", n))
	}
	if k < 0 || k > maxShards {
		panic(fmt.Sprintf("shard: shard count must lie in [0, %d], got %d", maxShards, k))
	}
	return &Engine{l: backend.CoreList{List: core.New(n)}}
}

// locked runs fn on the list under the lock.
func locked[T any](e *Engine, fn func(l *backend.CoreList) T) T {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn(&e.l)
}

// locked2 is locked for the list's two-result operations.
func locked2[T, U any](e *Engine, fn func(l *backend.CoreList) (T, U)) (T, U) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn(&e.l)
}

// Enqueue and Dequeue, the hold loop's two operations, unlock without a
// deferred call.
func (e *Engine) Enqueue(ent core.Entry) error {
	e.mu.Lock()
	err := e.l.Enqueue(ent)
	e.mu.Unlock()
	return err
}

func (e *Engine) Dequeue(now clock.Time) (core.Entry, bool) {
	e.mu.Lock()
	ent, ok := e.l.Dequeue(now)
	e.mu.Unlock()
	return ent, ok
}

func (e *Engine) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	return locked2(e, func(l *backend.CoreList) (core.Entry, bool) { return l.DequeueRange(now, lo, hi) })
}

func (e *Engine) DequeueFlow(id uint32) (core.Entry, bool) {
	return locked2(e, func(l *backend.CoreList) (core.Entry, bool) { return l.DequeueFlow(id) })
}

func (e *Engine) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	return locked(e, func(l *backend.CoreList) bool { return l.UpdateRank(id, rank, sendTime) })
}

// EnqueueBatch inserts es in order under one lock hold.
func (e *Engine) EnqueueBatch(es []core.Entry) (int, error) {
	return locked2(e, func(l *backend.CoreList) (int, error) { return l.EnqueueBatch(es) })
}

// DequeueUpTo extracts up to k eligible elements under one lock hold.
func (e *Engine) DequeueUpTo(now clock.Time, k int, out []core.Entry) []core.Entry {
	return locked(e, func(l *backend.CoreList) []core.Entry { return l.DequeueUpTo(now, k, out) })
}

func (e *Engine) PeekMax() (core.Entry, bool) {
	return locked2(e, func(l *backend.CoreList) (core.Entry, bool) { return l.PeekMax() })
}

func (e *Engine) EvictMax() (core.Entry, bool) {
	return locked2(e, func(l *backend.CoreList) (core.Entry, bool) { return l.EvictMax() })
}

func (e *Engine) Peek(now clock.Time) (core.Entry, bool) {
	return locked2(e, func(l *backend.CoreList) (core.Entry, bool) { return l.Peek(now) })
}

func (e *Engine) PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	return locked2(e, func(l *backend.CoreList) (core.Entry, bool) { return l.PeekRange(now, lo, hi) })
}

func (e *Engine) Len() int { return locked(e, func(l *backend.CoreList) int { return l.Len() }) }

func (e *Engine) Contains(id uint32) bool {
	return locked(e, func(l *backend.CoreList) bool { return l.Contains(id) })
}

func (e *Engine) MinSendTime() (clock.Time, bool) {
	return locked2(e, func(l *backend.CoreList) (clock.Time, bool) { return l.MinSendTime() })
}

func (e *Engine) NextWakeAfter(now clock.Time) clock.Time {
	return locked(e, func(l *backend.CoreList) clock.Time { return l.NextWakeAfter(now) })
}

func (e *Engine) Snapshot() []core.Entry {
	return locked(e, func(l *backend.CoreList) []core.Entry { return l.Snapshot() })
}

func (e *Engine) Stats() backend.Stats {
	return locked(e, func(l *backend.CoreList) backend.Stats { return l.Stats() })
}

func (e *Engine) HardwareStats() core.Stats {
	return locked(e, func(l *backend.CoreList) core.Stats { return l.List.Stats() })
}

func (e *Engine) CheckInvariants() error {
	return locked(e, func(l *backend.CoreList) error { return l.CheckInvariants() })
}

// EligIndexActive is always true: the list's index is its own summaries.
func (e *Engine) EligIndexActive() bool { return true }

// DisableEligIndex is a no-op.
func (e *Engine) DisableEligIndex() {}

// Health reports occupancy against capacity.
func (e *Engine) Health() backend.HealthReport {
	return locked(e, func(l *backend.CoreList) backend.HealthReport {
		return backend.HealthReport{Occupancy: l.Len(), Capacity: l.Capacity()}
	})
}

// FaultStats counts what a fault cost the engine. A list behind one lock
// has nothing to quarantine and loses nothing, so it always reads zero.
type FaultStats struct {
	Quarantines uint64
	LostEntries uint64
}

// FaultStats always reports zero.
func (e *Engine) FaultStats() FaultStats { return FaultStats{} }

// SetCombining implements backend.Combining as a no-op. Inert: the
// engine has no rings; removed with the benchmark's three ring rows
// (ROADMAP item 1).
func (e *Engine) SetCombining(bool) {}

// CombiningEnabled implements backend.Combining and is always false.
func (e *Engine) CombiningEnabled() bool { return false }

// CombiningStats implements backend.Combining and is always zero.
func (e *Engine) CombiningStats() backend.CombiningStats { return backend.CombiningStats{} }

var (
	_ backend.Backend         = (*Engine)(nil)
	_ backend.Batcher         = (*Engine)(nil)
	_ backend.Combining       = (*Engine)(nil)
	_ backend.Health          = (*Engine)(nil)
	_ backend.HardwareModeled = (*Engine)(nil)
)
