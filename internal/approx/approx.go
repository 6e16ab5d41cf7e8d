// Package approx implements the approximate scheduling datastructures
// §2.3 surveys as scalable-but-inexact alternatives to an ordered list:
// the multi-priority FIFO queue (802.1Q-style priority bands), the
// calendar queue (Brown 1988), and the hashed timing wheel (Varghese &
// Lauck 1987). All three approximate a priority queue with multiple FIFO
// queues, which makes them fast and scalable in hardware but — as the
// paper argues — "they could only express approximate versions of key
// packet scheduling algorithms, invariably resulting in weaker
// performance guarantees", and their bucket/level counts are
// "performance-critical configuration parameters which are not trivial
// to fine-tune". internal/experiments quantifies both claims against the
// exact PIEO list.
package approx

import (
	"fmt"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// MultiPriorityFIFO approximates rank order with k priority bands: an
// element of rank r lands in band r*k/rankSpace, and dequeue pops the
// first non-empty band in FIFO order. Elements within a band lose their
// relative rank order entirely. There is no eligibility support — bands
// are work-conserving FIFOs, exactly like 802.1Q hardware queues.
type MultiPriorityFIFO struct {
	bands     [][]core.Entry
	rankSpace uint64
	size      int
}

// NewMultiPriorityFIFO creates k bands covering ranks [0, rankSpace).
func NewMultiPriorityFIFO(k int, rankSpace uint64) *MultiPriorityFIFO {
	if k <= 0 || rankSpace == 0 {
		panic(fmt.Sprintf("approx: invalid multi-priority fifo k=%d space=%d", k, rankSpace))
	}
	return &MultiPriorityFIFO{bands: make([][]core.Entry, k), rankSpace: rankSpace}
}

// Enqueue places e in its quantized band.
func (m *MultiPriorityFIFO) Enqueue(e core.Entry) {
	b := int(e.Rank * uint64(len(m.bands)) / m.rankSpace)
	if b >= len(m.bands) {
		b = len(m.bands) - 1
	}
	m.bands[b] = append(m.bands[b], e)
	m.size++
}

// Dequeue pops the head of the first non-empty band.
func (m *MultiPriorityFIFO) Dequeue() (core.Entry, bool) {
	for b := range m.bands {
		if len(m.bands[b]) > 0 {
			e := m.bands[b][0]
			m.bands[b] = m.bands[b][1:]
			m.size--
			return e, true
		}
	}
	return core.Entry{}, false
}

// Len returns the number of queued elements.
func (m *MultiPriorityFIFO) Len() int { return m.size }

// CalendarQueue approximates rank order with nBuckets "days" of width
// bucketWidth: an element of rank r is appended to bucket (r /
// bucketWidth) mod nBuckets, and dequeue sweeps forward from the current
// day. Elements within a bucket stay FIFO, and ranks a whole "year"
// (nBuckets*bucketWidth) apart collide into the same bucket — the
// classic calendar-queue failure mode the paper's tuning remark is
// about.
type CalendarQueue struct {
	buckets     [][]core.Entry
	bucketWidth uint64
	day         int
	size        int
}

// NewCalendarQueue creates a calendar of nBuckets days of the given
// width.
func NewCalendarQueue(nBuckets int, bucketWidth uint64) *CalendarQueue {
	if nBuckets <= 0 || bucketWidth == 0 {
		panic(fmt.Sprintf("approx: invalid calendar queue n=%d w=%d", nBuckets, bucketWidth))
	}
	return &CalendarQueue{buckets: make([][]core.Entry, nBuckets), bucketWidth: bucketWidth}
}

// Enqueue appends e to its bucket.
func (c *CalendarQueue) Enqueue(e core.Entry) {
	b := int(e.Rank / c.bucketWidth % uint64(len(c.buckets)))
	c.buckets[b] = append(c.buckets[b], e)
	c.size++
}

// Dequeue pops the head of the first non-empty bucket at or after the
// current day, wrapping around the calendar.
func (c *CalendarQueue) Dequeue() (core.Entry, bool) {
	if c.size == 0 {
		return core.Entry{}, false
	}
	for i := 0; i < len(c.buckets); i++ {
		b := (c.day + i) % len(c.buckets)
		if len(c.buckets[b]) > 0 {
			e := c.buckets[b][0]
			c.buckets[b] = c.buckets[b][1:]
			c.day = b
			c.size--
			return e, true
		}
	}
	return core.Entry{}, false
}

// Len returns the number of queued elements.
func (c *CalendarQueue) Len() int { return c.size }

// TimingWheel approximates eligibility-time release: an element with
// send_time t is parked in slot (t / slotNs) mod nSlots and becomes
// releasable once the wheel's clock passes its slot — with slot
// granularity error. Elements already eligible go to a ready FIFO.
// Within a slot, rank order is lost (FIFO), and send times more than one
// rotation ahead collide.
type TimingWheel struct {
	slots   [][]core.Entry
	ready   []core.Entry
	slotNs  clock.Time
	cursor  uint64 // absolute slot index already drained up to
	size    int
	horizon uint64 // absolute slot of the farthest parked element
}

// NewTimingWheel creates a wheel of nSlots slots of slotNs each.
func NewTimingWheel(nSlots int, slotNs clock.Time) *TimingWheel {
	if nSlots <= 0 || slotNs == 0 {
		panic(fmt.Sprintf("approx: invalid timing wheel n=%d slot=%v", nSlots, slotNs))
	}
	return &TimingWheel{slots: make([][]core.Entry, nSlots), slotNs: slotNs}
}

// Enqueue parks e until its send_time's slot.
func (w *TimingWheel) Enqueue(e core.Entry) {
	abs := uint64(e.SendTime) / uint64(w.slotNs)
	if abs <= w.cursor {
		w.ready = append(w.ready, e)
		w.size++
		return
	}
	if abs > w.horizon {
		w.horizon = abs
	}
	w.slots[abs%uint64(len(w.slots))] = append(w.slots[abs%uint64(len(w.slots))], e)
	w.size++
}

// Advance moves the wheel clock to now, draining every slot whose time
// has come into the ready FIFO.
func (w *TimingWheel) Advance(now clock.Time) {
	target := uint64(now) / uint64(w.slotNs)
	for w.cursor < target {
		w.cursor++
		idx := w.cursor % uint64(len(w.slots))
		if len(w.slots[idx]) > 0 {
			w.ready = append(w.ready, w.slots[idx]...)
			w.slots[idx] = nil
		}
	}
}

// Dequeue pops the ready FIFO after advancing to now.
func (w *TimingWheel) Dequeue(now clock.Time) (core.Entry, bool) {
	w.Advance(now)
	if len(w.ready) == 0 {
		return core.Entry{}, false
	}
	e := w.ready[0]
	w.ready = w.ready[1:]
	w.size--
	return e, true
}

// Len returns parked + ready elements.
func (w *TimingWheel) Len() int { return w.size }

// ReleaseError returns the worst-case release-time error of the wheel:
// one slot of granularity.
func (w *TimingWheel) ReleaseError() clock.Time { return w.slotNs }
