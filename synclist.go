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
// lock mirrors the real serialization point rather than hiding it; when
// the lock itself becomes the bottleneck, switch to the sharded engine
// (NewShardedList), which partitions flows across independently-locked
// lists.
//
// Locking invariant: every mutating operation (Enqueue, Dequeue,
// DequeueFlow, DequeueRange, UpdateRank) takes the write lock; the
// read-only queries (Len, Contains, MinSendTime, Snapshot, Stats) take
// the read lock and may run concurrently with each other. This is sound
// only because the wrapped backend's query methods are side-effect free
// — core.List queries touch no counters and do no lazy restructuring.
// A backend whose reads mutate (e.g. one that rebalances on Snapshot)
// must not be wrapped here without auditing that property.
type SyncList struct {
	mu sync.RWMutex
	b  backend.Backend

	faults  uint64 // operations that failed with a non-contract error
	lastErr error  // most recent such error, for diagnosis
}

// NewSyncList creates a concurrency-safe PIEO list with capacity n over
// the paper-exact list backend.
func NewSyncList(n int) *SyncList {
	return NewSyncListOn(backend.NewCoreList(n))
}

// NewSyncListNamed creates a concurrency-safe PIEO list with capacity n
// over the named registered backend — the same registry NewBackend
// consults, so "ref" wraps the flat reference model and "core" is
// identical to NewSyncList.
func NewSyncListNamed(name string, n int) (*SyncList, error) {
	b, err := backend.New(name, n)
	if err != nil {
		return nil, err
	}
	return NewSyncListOn(b), nil
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
// concurrent readers never observe the element missing. A re-enqueue
// failure on the fallback path (possible only with an injected fault —
// the freed slot cannot be stolen under the lock) restores the element,
// reports false, and is retained for Faults/LastErr.
func (s *SyncList) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok, err := backend.UpdateRank(s.b, id, rank, sendTime)
	if err != nil {
		s.faults++
		s.lastErr = err
	}
	return ok
}

// Faults returns how many operations failed with a non-contract error
// (injected faults, lost restores), and the most recent such error.
func (s *SyncList) Faults() (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.faults, s.lastErr
}

// NextWakeAfter implements backend.EligIndexed: delegated to the wrapped
// backend's index when it has one, answered exactly by a snapshot scan
// otherwise (the capability's contract is exactness, not speed).
func (s *SyncList) NextWakeAfter(now Time) Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ix, ok := s.b.(backend.EligIndexed); ok {
		return ix.NextWakeAfter(now)
	}
	best := clock.Never
	for _, ent := range s.b.Snapshot() {
		if ent.SendTime > now && ent.SendTime < best {
			best = ent.SendTime
		}
	}
	return best
}

// EligIndexActive implements backend.EligIndexed, reporting false when
// the wrapped backend carries no eligibility index.
func (s *SyncList) EligIndexActive() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ix, ok := s.b.(backend.EligIndexed); ok {
		return ix.EligIndexActive()
	}
	return false
}

// DisableEligIndex implements backend.EligIndexed as a no-op, as it is
// on every backend underneath.
func (s *SyncList) DisableEligIndex() {}

// PeekMax implements backend.Evictor when the wrapped backend does,
// reporting ok=false otherwise so push-out degrades to tail-drop.
func (s *SyncList) PeekMax() (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ev, ok := s.b.(backend.Evictor); ok {
		return ev.PeekMax()
	}
	return Entry{}, false
}

// EvictMax implements backend.Evictor when the wrapped backend does.
func (s *SyncList) EvictMax() (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev, ok := s.b.(backend.Evictor); ok {
		return ev.EvictMax()
	}
	return Entry{}, false
}

// Health implements backend.Health: delegated to the wrapped backend's
// report when it has one (a sharded engine under the lock), synthesized
// as a single always-closed partition otherwise — a lock-guarded list
// has no quarantine machinery, so its health surface is occupancy plus
// the Faults counter.
func (s *SyncList) Health() backend.HealthReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if h, ok := s.b.(backend.Health); ok {
		return h.Health()
	}
	occ := s.b.Len()
	capacity := 0
	if c, ok := s.b.(interface{ Capacity() int }); ok {
		capacity = c.Capacity()
	}
	return backend.HealthReport{
		Occupancy: occ,
		Capacity:  capacity,
		Shards: []backend.ShardHealth{
			{Index: 0, Up: true, Phase: backend.BreakerClosed, Occupancy: occ},
		},
	}
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
	return backend.CheckInvariants(s.b)
}

var (
	_ backend.Backend     = (*SyncList)(nil)
	_ backend.Batcher     = (*SyncList)(nil)
	_ backend.EligIndexed = (*SyncList)(nil)
	_ backend.Health      = (*SyncList)(nil)
)
