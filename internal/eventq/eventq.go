// Package eventq implements the discrete-event queue that drives the
// network simulator. It is a plain binary min-heap ordered by event time,
// with FIFO tie-breaking among events scheduled for the same instant so
// that simulation runs are fully deterministic.
//
// Events are typed records, not callbacks: the simulator has exactly
// three things that can happen at an instant, and a record that names
// which — plus the packet it concerns — is stored in the heap itself, so
// scheduling an event allocates nothing.
package eventq

import (
	"pieo/internal/clock"
	"pieo/internal/flowq"
)

// Kind says what happens when an event fires.
type Kind uint8

const (
	// Arrival delivers Pkt to the scheduler.
	Arrival Kind = iota
	// TxDone marks Pkt leaving the wire.
	TxDone
	// Wake re-polls a scheduler that had nothing eligible; Pkt is unused.
	Wake
)

// Event is one scheduled occurrence.
type Event struct {
	At   clock.Time
	seq  uint64 // insertion order, breaks ties deterministically
	Kind Kind
	Pkt  flowq.Packet
}

// minCap is the smallest backing array the queue keeps: below it the
// give-back rule would trade allocations for bytes not worth having.
const minCap = 64

// Queue is a min-heap of events. The zero value is an empty queue ready
// to use.
//
// The backing array doubles when full and halves when less than a
// quarter of it is in use, so a queue that once held a large burst (a
// whole workload's arrivals injected at t=0) does not keep that
// high-water memory for the rest of the run.
type Queue struct {
	heap []Event
	seq  uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// before reports whether a fires before b.
func before(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// Push schedules an event of the given kind at t.
func (q *Queue) Push(t clock.Time, kind Kind, p flowq.Packet) {
	if len(q.heap) == cap(q.heap) {
		q.resize(max(minCap, 2*cap(q.heap)))
	}
	q.seq++
	q.heap = q.heap[:len(q.heap)+1]
	h := q.heap
	// Sift the hole up: parents move down into it, the new event is
	// written once. It is the newest, so it loses every tie.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].At <= t {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = Event{At: t, seq: q.seq, Kind: kind, Pkt: p}
}

// PeekTime returns the timestamp of the earliest pending event. The second
// result is false when the queue is empty.
func (q *Queue) PeekTime() (clock.Time, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].At, true
}

// Pop removes and returns the earliest pending event. The second result is
// false when the queue is empty.
func (q *Queue) Pop() (Event, bool) {
	h := q.heap
	if len(h) == 0 {
		return Event{}, false
	}
	top := h[0]
	n := len(h) - 1
	// Sift the hole at the root down: the smaller child moves up into it
	// until the last event fits, and is written once.
	last := &h[n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && before(&h[right], &h[child]) {
			child = right
		}
		if !before(&h[child], last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = *last
	q.heap = h[:n]
	if c := cap(h); c > minCap && n < c/4 {
		q.resize(c / 2)
	}
	return top, true
}

// resize moves the pending events to a backing array of the given
// capacity.
func (q *Queue) resize(capacity int) {
	q.heap = append(make([]Event, 0, capacity), q.heap...)
}
