package core

import (
	"testing"
	"unsafe"

	"pieo/internal/clock"
)

// The software datapath's unit costs, pinned so that a reordered or
// added field cannot silently put back the bytes the layout saves: an
// element is half a cache line (a row is S+1 of them, and every enqueue
// and Invariant-1 move writes one), a flow-index slot an eighth of one.
func TestElementLayout(t *testing.T) {
	if got := unsafe.Sizeof(element{}); got != 32 {
		t.Fatalf("element must be 32 bytes (two per cache line): got %d", got)
	}
	if got := unsafe.Sizeof(flowSlot{}); got != 8 {
		t.Fatalf("flowSlot must be 8 bytes (eight per cache line): got %d", got)
	}
}

// slots records where every resident of the given sublists sits: its
// element by id in the row, its slot number by id in the rank-order
// store, its send_time by value in the eligibility store (the drift
// tests use distinct send_times). A place is named by sublist and
// absolute index, so it changes exactly when the thing is copied
// somewhere else.
type slots struct {
	elem map[uint32][2]int
	num  map[uint32][2]int
	elig map[clock.Time][2]int
}

func slotsOf(sls []sublist) slots {
	s := slots{elem: map[uint32][2]int{}, num: map[uint32][2]int{}, elig: map[clock.Time][2]int{}}
	for sid := range sls {
		sl := &sls[sid]
		for j, slot := range sl.slots {
			id := sl.row[slot].id
			s.elem[id] = [2]int{sid, int(slot)}
			s.num[id] = [2]int{sid, sl.sstart + j}
		}
		for j, t := range sl.elig {
			s.elig[t] = [2]int{sid, sl.tstart + j}
		}
	}
	return s
}

// movedSince counts the residents of both snapshots that are no longer
// where before saw them — the elements an operation copied, and the slot
// numbers and send_times it shifted, not counting the one it inserted or
// removed.
func (after slots) movedSince(before slots) (elems, shifted int) {
	for id, at := range after.elem {
		if was, ok := before.elem[id]; ok && was != at {
			elems++
		}
	}
	for id, at := range after.num {
		if was, ok := before.num[id]; ok && was != at {
			shifted++
		}
	}
	for t, at := range after.elig {
		if was, ok := before.elig[t]; ok && was != at {
			shifted++
		}
	}
	return elems, shifted
}

// driftBound is the constant c of the window-drift contract: slot
// numbers and send_times moved per insert or removal, amortised, when
// every operation works a window's ends. The recentring rule gives at
// most S+1 moves per (S+1)/2 operations on a window, and an operation
// touches two windows (rank order and eligibility order); without
// recentring the cost is the window length, ~S, on every insert once a
// window has reached the edge of its store. Elements have a bound of
// their own, and it is exact: an insert or removal inside a row copies
// no resident element, an Invariant-1 move copies the one it moves.
const driftBound = 4

// TestSublistWindowDrift drives one sublist through the two patterns
// that walk a window across its store — remove the head, insert at the
// tail (a sublist drained from the front and refilled at the back, the
// hold model's pattern), and the mirror — for many times the store's
// length, at a half-full and a full window.
func TestSublistWindowDrift(t *testing.T) {
	const s = 32
	const cycles = 20 * s
	for _, resident := range []int{s / 2, s} {
		for _, dir := range []string{"head-remove/tail-insert", "tail-remove/head-insert"} {
			var sl sublist
			sl.bind(make([]element, s+1), make([]uint16, 3*(s+1)), make([]clock.Time, 2*(s+1)))
			// Keys start in the middle of their range so either pattern
			// can extend them; send_time tracks rank, so both windows see
			// the same pattern.
			lo, hi := uint64(1<<20), uint64(1<<20)
			add := func(key uint64, idx int) {
				sl.insertEntryAt(idx, element{rank: key, sendTime: clock.Time(key), seq: key, id: uint32(key)})
				sl.insertElig(clock.Time(key))
			}
			for i := 0; i < resident; i++ {
				add(hi, sl.len())
				hi++
			}
			copied, moved := 0, 0
			for i := 0; i < cycles; i++ {
				before := slotsOf([]sublist{sl})
				if dir == "head-remove/tail-insert" {
					st := sl.at(0).sendTime
					sl.removeEntryAt(0)
					sl.removeElig(st)
					add(hi, sl.len())
					hi++
				} else {
					st := sl.at(sl.len() - 1).sendTime
					sl.removeEntryAt(sl.len() - 1)
					sl.removeElig(st)
					lo--
					add(lo, 0)
				}
				e, n := slotsOf([]sublist{sl}).movedSince(before)
				copied, moved = copied+e, moved+n
				if sl.len() != resident || len(sl.elig) != resident {
					t.Fatalf("%s: window lengths %d/%d, want %d", dir, sl.len(), len(sl.elig), resident)
				}
			}
			for j := 1; j < sl.len(); j++ {
				if !sl.at(j-1).less(sl.at(j)) || sl.elig[j-1] >= sl.elig[j] {
					t.Fatalf("%s: windows out of order at %d", dir, j)
				}
			}
			if copied != 0 {
				t.Errorf("%s at %d/%d resident: %d resident elements copied inside their row, want 0", dir, resident, s, copied)
			}
			if ops := 2 * cycles; moved > driftBound*ops {
				t.Errorf("%s at %d/%d resident: %d window entries moved over %d ops (%.1f per op), want <= %d per op",
					dir, resident, s, moved, ops, float64(moved)/float64(ops), driftBound)
			}
		}
	}
}

// TestListWindowDrift is the same contract through the public datapath.
// With between S and 2S residents the list is two sublists, one full and
// one partial, and a FIFO hold pattern keeps it that way: every dequeue
// takes the head of the full sublist, Invariant 1 refills it from the
// partial neighbour, and the enqueue lands at the far end — both
// sublists' windows take one step across their stores per cycle, and the
// refill is the cycle's one element copy.
func TestListWindowDrift(t *testing.T) {
	const s = 32
	const cycles = 20 * s
	now := clock.Never - 1

	t.Run("head-remove/tail-insert", func(t *testing.T) {
		l := NewWithSublistSize(32*s, s)
		next := uint64(1)
		enq := func() {
			if err := l.Enqueue(Entry{ID: uint32(next), Rank: next, SendTime: clock.Time(next)}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < s+s/2; i++ {
			enq()
		}
		copied, moved := 0, 0
		for i := 0; i < cycles; i++ {
			before := slotsOf(l.sublists)
			if _, ok := l.Dequeue(now); !ok {
				t.Fatal("dequeue missed")
			}
			enq()
			e, n := slotsOf(l.sublists).movedSince(before)
			copied, moved = copied+e, moved+n
		}
		checkDrift(t, l, copied, moved, cycles)
	})

	t.Run("tail-remove/head-insert", func(t *testing.T) {
		l := NewWithSublistSize(32*s, s)
		// Two full sublists, then drain the first to half: [S/2][S], the
		// mirror image of the layout above.
		const base = 1 << 20
		for i := 0; i < 2*s; i++ {
			if err := l.Enqueue(Entry{ID: uint32(base + i), Rank: uint64(base + i), SendTime: clock.Time(base + i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < s/2; i++ {
			l.Dequeue(now)
		}
		next := uint64(base - 1)
		copied, moved := 0, 0
		for i := 0; i < cycles; i++ {
			before := slotsOf(l.sublists)
			if err := l.Enqueue(Entry{ID: uint32(next), Rank: next, SendTime: clock.Time(next)}); err != nil {
				t.Fatal(err)
			}
			next--
			max, _ := l.MaxRankEntry()
			if _, ok := l.DequeueFlow(max.ID); !ok {
				t.Fatal("dequeue(f) of the largest rank missed")
			}
			e, n := slotsOf(l.sublists).movedSince(before)
			copied, moved = copied+e, moved+n
		}
		checkDrift(t, l, copied, moved, cycles)
	})
}

// checkDrift judges cycles dequeue+enqueue pairs, each with one
// Invariant-1 refill.
func checkDrift(t *testing.T, l *List, copied, moved, cycles int) {
	t.Helper()
	ops := 2 * cycles
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if l.active != 2 {
		t.Fatalf("pattern left %d active sublists, want the full/partial pair", l.active)
	}
	if copied != cycles {
		t.Errorf("%d resident elements copied over %d refills, want exactly one each", copied, cycles)
	}
	if moved > driftBound*ops {
		t.Errorf("%d window entries moved over %d ops (%.1f per op), want <= %d per op",
			moved, ops, float64(moved)/float64(ops), driftBound)
	}
}
