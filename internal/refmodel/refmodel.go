// Package refmodel is the executable specification of the PIEO primitive
// (§3.1) and of the whole backend.Backend contract: a single flat list
// ordered by (rank, FIFO arrival), with dequeue returning the first
// eligible element, re-rank defined as dequeue(f) then enqueue(f), and
// the push-out victim the last element. It makes no attempt to be fast
// or hardware-shaped — its only job is to be obviously correct so every
// list can be tested differentially against it, by the conformance suite
// in internal/refmodel/conform. A dequeue of either kind that finds
// nothing counts as an empty dequeue, as it does in every list.
package refmodel

import (
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

type element struct {
	core.Entry
	seq uint64
}

// List is a flat, sorted PIEO list with the same operation contract as
// core.List.
type List struct {
	capacity int
	entries  []element
	seq      uint64
	present  map[uint32]bool
	stats    backend.Stats
}

// New creates a reference list with the given capacity.
func New(capacity int) *List {
	return &List{capacity: capacity, present: make(map[uint32]bool)}
}

var _ backend.Backend = (*List)(nil)

func init() {
	backend.Register("ref", func(n int) backend.Backend { return New(n) })
}

// Stats returns the accumulated operation counters, making the reference
// model itself a backend.Backend — so the differential harness can drive
// the spec and an implementation through one code path.
func (l *List) Stats() backend.Stats { return l.stats }

// Len returns the number of queued elements.
func (l *List) Len() int { return len(l.entries) }

// Contains reports whether id is queued.
func (l *List) Contains(id uint32) bool { return l.present[id] }

// Enqueue inserts e in (rank, FIFO) order.
func (l *List) Enqueue(e core.Entry) error {
	if len(l.entries) == l.capacity {
		return core.ErrFull
	}
	if l.present[e.ID] {
		return core.ErrDuplicate
	}
	l.seq++
	elem := element{Entry: e, seq: l.seq}
	idx := len(l.entries)
	for i, x := range l.entries {
		if elem.Rank < x.Rank || (elem.Rank == x.Rank && elem.seq < x.seq) {
			idx = i
			break
		}
	}
	l.entries = append(l.entries, element{})
	copy(l.entries[idx+1:], l.entries[idx:])
	l.entries[idx] = elem
	l.present[e.ID] = true
	l.stats.Enqueues++
	return nil
}

// Dequeue extracts the smallest-ranked eligible element at now.
func (l *List) Dequeue(now clock.Time) (core.Entry, bool) {
	for i, x := range l.entries {
		if x.SendTime <= now {
			l.stats.Dequeues++
			return l.removeAt(i), true
		}
	}
	l.stats.EmptyDequeues++
	return core.Entry{}, false
}

// Peek returns what Dequeue would extract, without removing it.
func (l *List) Peek(now clock.Time) (core.Entry, bool) {
	for _, x := range l.entries {
		if x.SendTime <= now {
			return x.Entry, true
		}
	}
	return core.Entry{}, false
}

// DequeueFlow extracts the element with the given id.
func (l *List) DequeueFlow(id uint32) (core.Entry, bool) {
	for i, x := range l.entries {
		if x.ID == id {
			l.stats.FlowDequeues++
			return l.removeAt(i), true
		}
	}
	return core.Entry{}, false
}

// DequeueRange extracts the smallest-ranked eligible element with
// lo <= ID <= hi.
func (l *List) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	for i, x := range l.entries {
		if x.SendTime <= now && x.ID >= lo && x.ID <= hi {
			l.stats.RangeDequeues++
			return l.removeAt(i), true
		}
	}
	l.stats.EmptyDequeues++
	return core.Entry{}, false
}

// MinSendTime returns the smallest send_time among queued elements.
func (l *List) MinSendTime() (clock.Time, bool) {
	if len(l.entries) == 0 {
		return 0, false
	}
	minT := clock.Never
	for _, x := range l.entries {
		if x.SendTime < minT {
			minT = x.SendTime
		}
	}
	return minT, true
}

// NextWakeAfter returns the smallest send_time strictly greater than now,
// or clock.Never when no queued element has one.
func (l *List) NextWakeAfter(now clock.Time) clock.Time {
	best := clock.Never
	for _, x := range l.entries {
		if x.SendTime > now && x.SendTime < best {
			best = x.SendTime
		}
	}
	return best
}

// UpdateRank re-ranks id by the §3.1 definition: DequeueFlow, then
// Enqueue with the new rank and send_time, so the element takes a fresh
// FIFO position among its new equal ranks.
func (l *List) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	e, ok := l.DequeueFlow(id)
	if !ok {
		return false
	}
	e.Rank = rank
	e.SendTime = sendTime
	// The freed slot and the removed id rule out both Enqueue errors.
	_ = l.Enqueue(e)
	return true
}

// PeekMax returns the push-out victim without removing it: the last
// element, which among equal maximal ranks is the newest arrival.
func (l *List) PeekMax() (core.Entry, bool) {
	if len(l.entries) == 0 {
		return core.Entry{}, false
	}
	return l.entries[len(l.entries)-1].Entry, true
}

// EvictMax removes and returns the PeekMax victim through DequeueFlow.
func (l *List) EvictMax() (core.Entry, bool) {
	e, ok := l.PeekMax()
	if !ok {
		return core.Entry{}, false
	}
	return l.DequeueFlow(e.ID)
}

// CheckInvariants reports nil: a flat sorted slice has no structure
// beyond its order, which every method keeps by construction.
func (l *List) CheckInvariants() error { return nil }

// Snapshot returns the entries in (rank, FIFO) order.
func (l *List) Snapshot() []core.Entry {
	out := make([]core.Entry, len(l.entries))
	for i, x := range l.entries {
		out[i] = x.Entry
	}
	return out
}

func (l *List) removeAt(i int) core.Entry {
	e := l.entries[i].Entry
	copy(l.entries[i:], l.entries[i+1:])
	l.entries = l.entries[:len(l.entries)-1]
	delete(l.present, e.ID)
	return e
}
