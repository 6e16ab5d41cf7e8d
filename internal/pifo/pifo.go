// Package pifo implements the Push-In-First-Out scheduling primitive of
// Sivaraman et al. (SIGCOMM 2016), the baseline the paper compares
// against (§2.3, §6). A PIFO maintains a rank-ordered list using the
// classic parallel compare-and-shift architecture: the whole list lives
// in flip-flops with one comparator per element, enqueue inserts at the
// rank position in one cycle, and dequeue only ever pops the head.
//
// The package also provides the PIFO-based WF²Q+ emulations of Fig 2 —
// a single PIFO ordered by finish time, a single PIFO ordered by start
// time, and the two-PIFO eligibility/rank construction — whose scheduling
// orders deviate from the ideal because PIFO cannot filter an arbitrary
// eligible subset at dequeue. internal/experiments uses them to reproduce
// Fig 2 and the O(N) deviation claim.
package pifo

import (
	"errors"
	"fmt"
)

// Entry is one PIFO element: an identifier and its programmable rank.
type Entry struct {
	ID   uint32
	Rank uint64
}

// ErrFull is returned by Enqueue when the list is at capacity. The
// hardware design has a hard capacity: one flip-flop slot per element.
var ErrFull = errors.New("pifo: list full")

// Stats counts hardware work: every enqueue activates one comparator per
// stored element (parallel compare) and shifts the tail of the list by
// one slot (parallel shift).
type Stats struct {
	Enqueues uint64
	Dequeues uint64
	Compares uint64 // comparator activations (one per element per enqueue)
	Shifts   uint64 // element slots shifted
}

type element struct {
	Entry
	seq uint64
}

// List is a PIFO: a rank-ordered list that dequeues only from the head.
type List struct {
	capacity int
	entries  []element
	seq      uint64
	stats    Stats
}

// New creates a PIFO with the given capacity.
func New(capacity int) *List {
	if capacity <= 0 {
		panic(fmt.Sprintf("pifo: capacity must be positive, got %d", capacity))
	}
	return &List{capacity: capacity, entries: make([]element, 0, capacity)}
}

// Len returns the number of queued elements.
func (l *List) Len() int { return l.size() }

func (l *List) size() int { return len(l.entries) }

// Capacity returns the maximum number of elements.
func (l *List) Capacity() int { return l.capacity }

// Stats returns a copy of the accumulated counters.
func (l *List) Stats() Stats { return l.stats }

// Enqueue inserts e at its rank position; equal ranks keep FIFO order.
func (l *List) Enqueue(e Entry) error {
	if len(l.entries) == l.capacity {
		return ErrFull
	}
	l.seq++
	elem := element{Entry: e, seq: l.seq}
	l.stats.Enqueues++
	l.stats.Compares += uint64(len(l.entries))

	idx := len(l.entries)
	for i, x := range l.entries {
		if e.Rank < x.Rank { // strict: equal ranks stay FIFO
			idx = i
			break
		}
	}
	l.stats.Shifts += uint64(len(l.entries) - idx)
	l.entries = append(l.entries, element{})
	copy(l.entries[idx+1:], l.entries[idx:])
	l.entries[idx] = elem
	return nil
}

// Dequeue pops the head (smallest-ranked) element. PIFO offers no other
// dequeue position — that restriction is exactly what PIEO lifts.
func (l *List) Dequeue() (Entry, bool) {
	if len(l.entries) == 0 {
		return Entry{}, false
	}
	l.stats.Dequeues++
	e := l.entries[0].Entry
	copy(l.entries, l.entries[1:])
	l.entries = l.entries[:len(l.entries)-1]
	l.stats.Shifts += uint64(len(l.entries))
	return e, true
}

// Peek returns the head element without removing it.
func (l *List) Peek() (Entry, bool) {
	if len(l.entries) == 0 {
		return Entry{}, false
	}
	return l.entries[0].Entry, true
}
