package pieo

import (
	"sync"

	"pieo/internal/backend"
	"pieo/internal/clock"
)

// SyncList is a lock-guarded PIEO backend for callers that enqueue from
// multiple goroutines (e.g. per-connection producers feeding one
// transmit scheduler). The hardware design — and the single-threaded
// List — processes one operation per four cycles anyway, so a single
// lock mirrors the real serialization point rather than hiding it. When
// the lock itself becomes the bottleneck, run one list per core with
// flows pinned to a list by the classifier's hash; partitioning one
// list over several locks was measured slower (DESIGN.md, "Why there
// is no concurrent engine").
//
// Each Backend method forwards the wrapped backend's under the lock; the
// batch methods hold it for the whole batch.
// Locking invariant: every mutating operation (Enqueue, Dequeue,
// DequeueFlow, DequeueRange, UpdateRank, EvictMax) and CheckInvariants
// take the write lock; the read-only queries (Len, Contains,
// MinSendTime, NextWakeAfter, PeekMax, Snapshot, Stats) take the read
// lock and may run concurrently with each other. This is sound
// only because the wrapped backend's query methods are side-effect free
// — core.List queries touch no counters and do no lazy restructuring.
// A backend whose reads mutate (e.g. one that rebalances on Snapshot)
// must not be wrapped here without auditing that property.
type SyncList struct {
	mu sync.RWMutex
	b  backend.Backend
}

// NewSyncList creates a concurrency-safe PIEO list with capacity n over
// the paper-exact list backend.
func NewSyncList(n int) *SyncList {
	return NewSyncListOn(backend.NewCoreList(n))
}

// NewSyncListOn wraps any Backend in a single reader-writer lock.
func NewSyncListOn(b backend.Backend) *SyncList {
	return &SyncList{b: b}
}

// Enqueue inserts e at its rank position.
func (s *SyncList) Enqueue(e Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Enqueue(e)
}

// Dequeue extracts the smallest-ranked eligible element at time now.
func (s *SyncList) Dequeue(now Time) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Dequeue(now)
}

// EnqueueBatch inserts es in order under ONE lock acquisition — the
// batch amortization this wrapper can offer — delegating to the wrapped
// backend's native batch path when it has one (backend.EnqueueBatch
// falls back to the per-op loop otherwise). Semantics match sequential
// Enqueue calls exactly: every entry is attempted, and the return is the
// accepted count plus the first error.
func (s *SyncList) EnqueueBatch(es []Entry) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return backend.EnqueueBatch(s.b, es)
}

// DequeueUpTo extracts up to k eligible elements at now under one lock
// acquisition, appending them to out (see backend.Batcher).
func (s *SyncList) DequeueUpTo(now Time, k int, out []Entry) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return backend.DequeueUpTo(s.b, now, k, out)
}

// DequeueFlow extracts a specific element by id.
func (s *SyncList) DequeueFlow(id uint32) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.DequeueFlow(id)
}

// DequeueRange extracts the smallest-ranked eligible element whose ID
// lies in [lo, hi].
func (s *SyncList) DequeueRange(now Time, lo, hi uint32) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.DequeueRange(now, lo, hi)
}

// Len returns the number of queued elements.
func (s *SyncList) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.Len()
}

// Contains reports whether id is currently queued.
func (s *SyncList) Contains(id uint32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.Contains(id)
}

// MinSendTime returns the earliest eligibility time across the list.
func (s *SyncList) MinSendTime() (Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.MinSendTime()
}

// UpdateRank atomically re-ranks the element with the given id — the
// dequeue(f)+enqueue(f) pattern under one critical section, so
// concurrent readers never observe the element missing.
func (s *SyncList) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.UpdateRank(id, rank, sendTime)
}

// NextWakeAfter returns the smallest send_time strictly after now, or
// Never.
func (s *SyncList) NextWakeAfter(now Time) Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.NextWakeAfter(now)
}

// PeekMax reports the push-out victim without removing it.
func (s *SyncList) PeekMax() (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.PeekMax()
}

// EvictMax removes and returns the push-out victim.
func (s *SyncList) EvictMax() (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.EvictMax()
}

// Snapshot returns the rank-ordered contents.
func (s *SyncList) Snapshot() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.Snapshot()
}

// Stats returns the wrapped backend's operation counters.
func (s *SyncList) Stats() backend.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.b.Stats()
}

// CheckInvariants validates the wrapped backend under the write lock.
func (s *SyncList) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.CheckInvariants()
}

var (
	_ backend.Backend = (*SyncList)(nil)
	_ backend.Batcher = (*SyncList)(nil)
)
