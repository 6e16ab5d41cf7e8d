package core

import (
	"testing"
	"unsafe"

	"pieo/internal/clock"
	"pieo/internal/idtab"
)

// The software datapath's unit costs, pinned so that a reordered or
// added field cannot silently put back the bytes the layout saves: an
// element is 24 bytes with its sublist id in the id's padding (the arena
// holds one per resident, and every enqueue writes one), a pointer-array
// entry 24, a flow-index slot an eighth of a cache line. Neither element
// nor ptr carries an arrival stamp: as in internal/hwsim, FIFO among
// equal ranks is positional.
func TestElementLayout(t *testing.T) {
	if got := unsafe.Sizeof(element{}); got != 24 {
		t.Fatalf("element must be 24 bytes (rank, send_time, id, sublist; no FIFO stamp): got %d", got)
	}
	if got := unsafe.Offsetof(element{}.sub); got != 20 {
		t.Fatalf("element's sublist id must sit in the id's padding at offset 20: got %d", got)
	}
	if got := unsafe.Sizeof(ptr{}); got != 24 {
		t.Fatalf("ptr must be 24 bytes (sublist id, smallest rank, smallest send_time): got %d", got)
	}
	// A flow-index slot is a 4-byte id and a 4-byte handle + 1;
	// idtab's TestSlotIsKeyAndValue pins that a slot adds no flag.
	if got := unsafe.Sizeof(idtab.ID(0)); got != 4 {
		t.Fatalf("flow-index key must be 4 bytes: got %d", got)
	}
	if v, _ := New(8).flows.Get(0); unsafe.Sizeof(v) != 4 {
		t.Fatalf("flow-index value must be 4 bytes: got %d", unsafe.Sizeof(v))
	}
}

// places records where every resident of the given sublists sits: its
// element's slot by id in the arena, its handle by id in a window's
// store, its send_time by value in the eligibility store (the drift
// tests use distinct send_times). A slot is named by its address and a
// place in a store by sublist and absolute index, so each changes
// exactly when the thing is copied somewhere else.
type places struct {
	elem   map[uint32]*element
	handle map[uint32][2]int
	elig   map[clock.Time][2]int
}

func placesOf(a arena, sls []sublist) places {
	s := places{elem: map[uint32]*element{}, handle: map[uint32][2]int{}, elig: map[clock.Time][2]int{}}
	for sid := range sls {
		sl := &sls[sid]
		for j, h := range sl.hs {
			e := a.at(h)
			s.elem[e.id] = e
			s.handle[e.id] = [2]int{sid, sl.hstart + j}
		}
		for j, t := range sl.elig {
			s.elig[t] = [2]int{sid, sl.tstart + j}
		}
	}
	return s
}

// movedSince counts the residents of both snapshots that are no longer
// where before saw them — the elements an operation copied, the handles
// it moved from one sublist's window to another's, and the handles and
// send_times it shifted (those crossings included), not counting the one
// it inserted or removed.
func (after places) movedSince(before places) (copied, crossed, shifted int) {
	for id, at := range after.elem {
		if was, ok := before.elem[id]; ok && was != at {
			copied++
		}
	}
	for id, at := range after.handle {
		if was, ok := before.handle[id]; ok && was != at {
			shifted++
			if was[0] != at[0] {
				crossed++
			}
		}
	}
	for t, at := range after.elig {
		if was, ok := before.elig[t]; ok && was != at {
			shifted++
		}
	}
	return copied, crossed, shifted
}

// driftBound is the constant c of the window-drift contract: handles
// and send_times moved per insert or removal, amortised, when every
// operation works a window's ends. The recentring rule gives at most S+1
// moves per (S+1)/2 operations on a window, and an operation touches two
// windows (rank order and eligibility order); without recentring the
// cost is the window length, ~S, on every insert once a window has
// reached the edge of its store. Elements have a bound of their own, and
// it is exact: a queued element never leaves its arena slot, and an
// Invariant-1 move carries exactly one handle into the neighbouring
// window.
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
			sl.bind(make([]uint32, 2*(s+1)), make([]clock.Time, 2*(s+1)))
			// The arena is one append-only chunk here, long enough for the
			// run: a handle is never reused, so a resident's handle names
			// it for the whole run.
			arena := arena{make([]element, 0, chunkLen)}
			// Keys start in the middle of their range so either pattern
			// can extend them; send_time tracks rank, so both windows see
			// the same pattern.
			lo, hi := uint64(1<<20), uint64(1<<20)
			add := func(key uint64, idx int) {
				arena[0] = append(arena[0], element{rank: key, sendTime: clock.Time(key), id: uint32(key)})
				sl.insertHandleAt(idx, uint32(len(arena[0])-1))
				sl.insertElig(clock.Time(key))
			}
			remove := func(idx int) {
				st := arena.at(sl.hs[idx]).sendTime
				sl.removeHandleAt(idx)
				sl.removeElig(st)
			}
			for i := 0; i < resident; i++ {
				add(hi, sl.len())
				hi++
			}
			moved := 0
			for i := 0; i < cycles; i++ {
				before := placesOf(arena, []sublist{sl})
				if dir == "head-remove/tail-insert" {
					remove(0)
					add(hi, sl.len())
					hi++
				} else {
					remove(sl.len() - 1)
					lo--
					add(lo, 0)
				}
				_, _, n := placesOf(arena, []sublist{sl}).movedSince(before)
				moved += n
				if sl.len() != resident || len(sl.elig) != resident {
					t.Fatalf("%s: window lengths %d/%d, want %d", dir, sl.len(), len(sl.elig), resident)
				}
			}
			for j := 1; j < sl.len(); j++ {
				if !arena.at(sl.hs[j-1]).less(arena.at(sl.hs[j])) || sl.elig[j-1] >= sl.elig[j] {
					t.Fatalf("%s: windows out of order at %d", dir, j)
				}
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
// refill is the cycle's one handle crossing between windows.
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
		var d drift
		for i := 0; i < cycles; i++ {
			before := placesOf(l.arena, l.sublists)
			if _, ok := l.Dequeue(now); !ok {
				t.Fatal("dequeue missed")
			}
			enq()
			d.add(placesOf(l.arena, l.sublists).movedSince(before))
		}
		d.check(t, l, cycles)
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
		var d drift
		for i := 0; i < cycles; i++ {
			before := placesOf(l.arena, l.sublists)
			if err := l.Enqueue(Entry{ID: uint32(next), Rank: next, SendTime: clock.Time(next)}); err != nil {
				t.Fatal(err)
			}
			next--
			max, _ := l.MaxRankEntry()
			if _, ok := l.DequeueFlow(max.ID); !ok {
				t.Fatal("dequeue(f) of the largest rank missed")
			}
			d.add(placesOf(l.arena, l.sublists).movedSince(before))
		}
		d.check(t, l, cycles)
	})
}

// drift accumulates movedSince over a run of dequeue+enqueue pairs.
type drift struct{ copied, crossed, shifted int }

func (d *drift) add(copied, crossed, shifted int) {
	d.copied, d.crossed, d.shifted = d.copied+copied, d.crossed+crossed, d.shifted+shifted
}

// check judges cycles dequeue+enqueue pairs, each with one Invariant-1
// refill.
func (d drift) check(t *testing.T, l *List, cycles int) {
	t.Helper()
	ops := 2 * cycles
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if l.active != 2 {
		t.Fatalf("pattern left %d active sublists, want the full/partial pair", l.active)
	}
	if d.copied != 0 {
		t.Errorf("%d queued elements left their arena slot over %d refills, want none", d.copied, cycles)
	}
	if d.crossed != cycles {
		t.Errorf("%d handles crossed between windows over %d refills, want exactly one each", d.crossed, cycles)
	}
	if d.shifted > driftBound*ops {
		t.Errorf("%d window entries moved over %d ops (%.1f per op), want <= %d per op",
			d.shifted, ops, float64(d.shifted)/float64(ops), driftBound)
	}
}

// TestCheckInvariantsHoldsHandles corrupts the arena bookkeeping three
// ways and expects CheckInvariants to name each: an element naming the
// wrong sublist, a held handle also on the free chain, and a free slot
// dropped from the chain. A fourth corruption keeps an eligibility window
// sorted but moves its last send_time one tick late, so the window no
// longer holds the residents' send_times.
func TestCheckInvariantsHoldsHandles(t *testing.T) {
	l := NewWithSublistSize(64, 4)
	for id := uint32(0); id < 20; id++ {
		if err := l.Enqueue(Entry{ID: id, Rank: uint64(id % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	l.DequeueFlow(3) // one free slot on the chain
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	held := l.sublists[l.order[0].sublistID].hs[0]
	for name, corrupt := range map[string]func() func(){
		"wrong sublist": func() func() {
			e := l.arena.at(held)
			was := e.sub
			e.sub = uint32(l.order[1].sublistID)
			return func() { e.sub = was }
		},
		"held and free": func() func() {
			was := l.free
			l.free = held
			return func() { l.free = was }
		},
		"free slot lost": func() func() {
			was := l.free
			l.free = l.arena.at(was).sub
			return func() { l.free = was }
		},
		"send time off by one": func() func() {
			elig := l.sublists[l.order[0].sublistID].elig
			elig[len(elig)-1]++
			return func() { elig[len(elig)-1]-- }
		},
	} {
		restore := corrupt()
		if err := l.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
		restore()
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
