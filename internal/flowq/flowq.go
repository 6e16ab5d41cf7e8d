// Package flowq provides the per-flow FIFO packet queues of the paper's
// scheduling model (§2.1): packets ready for transmission are stored in one
// queue per flow (traffic class); packets within a flow always leave in
// FIFO order, and the PIEO scheduler decides which flow transmits next.
package flowq

import "pieo/internal/clock"

// FlowID identifies a flow (equivalently a traffic class). In hierarchical
// schedulers it also serves as the element index that logical-PIEO
// predicates filter on (paper §4.3).
type FlowID uint32

// Packet is a packet waiting in a flow queue. Size is the transmission
// length in bytes. Deadline and SendAt carry per-packet scheduling inputs
// used by some algorithms (EDF/RCSP); algorithms that do not need them
// leave them zero.
type Packet struct {
	Flow     FlowID
	Size     uint32
	Arrival  clock.Time // when the packet entered the flow queue
	SendAt   clock.Time // per-packet eligibility time (RCSP-style shaping)
	Deadline clock.Time // absolute deadline (EDF) or slack reference (LSTF)
	Rank     uint64     // per-packet rank, assigned by input-triggered programs
	Seq      uint64     // global arrival sequence, for audit trails
}

// Queue is a FIFO of packets backed by a growable ring buffer whose
// length is always a power of two, so positions wrap by mask. The zero
// value is an empty queue ready to use.
//
// Limit, when non-zero, caps the queue at that many packets: TryPush
// tail-drops beyond it (the standard NIC queue discipline) and counts
// the drops. Push ignores the limit, for callers that manage admission
// themselves.
type Queue struct {
	Limit int

	buf   []Packet
	head  int
	n     int
	bytes uint64
	drops uint64
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.n }

// Empty reports whether the queue holds no packets.
func (q *Queue) Empty() bool { return q.n == 0 }

// Bytes returns the total queued payload in bytes.
func (q *Queue) Bytes() uint64 { return q.bytes }

// Drops returns the number of packets tail-dropped by TryPush.
func (q *Queue) Drops() uint64 { return q.drops }

// TryPush appends p unless the queue is at its Limit, in which case the
// packet is tail-dropped and false is returned.
func (q *Queue) TryPush(p Packet) bool {
	if q.Limit > 0 && q.n >= q.Limit {
		q.drops++
		return false
	}
	q.Push(p)
	return true
}

// Push appends p to the tail of the queue.
func (q *Queue) Push(p Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
	q.bytes += uint64(p.Size)
}

// Head returns the packet at the head of the queue without removing it.
// The second result is false when the queue is empty.
func (q *Queue) Head() (Packet, bool) {
	if q.n == 0 {
		return Packet{}, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the packet at the head of the queue. The second
// result is false when the queue is empty.
func (q *Queue) Pop() (Packet, bool) {
	if q.n == 0 {
		return Packet{}, false
	}
	p := q.buf[q.head]
	q.buf[q.head] = Packet{} // do not retain popped data
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.bytes -= uint64(p.Size)
	return p, true
}

func (q *Queue) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]Packet, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
