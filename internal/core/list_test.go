package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/clock"
)

func mustEnqueue(t *testing.T, l *List, id uint32, rank uint64, send clock.Time) {
	t.Helper()
	if err := l.Enqueue(Entry{ID: id, Rank: rank, SendTime: send}); err != nil {
		t.Fatalf("Enqueue(%d,%d,%v): %v", id, rank, send, err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("after Enqueue(%d,%d,%v): %v", id, rank, send, err)
	}
}

func TestEmptyList(t *testing.T) {
	l := New(16)
	if l.Len() != 0 || l.Capacity() != 16 {
		t.Fatalf("Len/Capacity = %d/%d", l.Len(), l.Capacity())
	}
	if _, ok := l.Dequeue(100); ok {
		t.Fatal("Dequeue on empty list succeeded")
	}
	if _, ok := l.DequeueFlow(1); ok {
		t.Fatal("DequeueFlow on empty list succeeded")
	}
	if _, ok := l.Peek(100); ok {
		t.Fatal("Peek on empty list succeeded")
	}
	if _, ok := l.MinSendTime(); ok {
		t.Fatal("MinSendTime on empty list reported ok")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometry(t *testing.T) {
	l := New(16)
	if l.SublistSize() != 4 {
		t.Fatalf("SublistSize = %d, want 4", l.SublistSize())
	}
	// 2*ceil(16/4)+2 = 10 physical sublists.
	if l.NumSublists() != 10 {
		t.Fatalf("NumSublists = %d, want 10", l.NumSublists())
	}
}

func TestSingleElement(t *testing.T) {
	l := New(16)
	mustEnqueue(t, l, 7, 42, 10)
	if !l.Contains(7) {
		t.Fatal("Contains(7) = false")
	}
	if _, ok := l.Dequeue(9); ok {
		t.Fatal("element dequeued before its send_time")
	}
	e, ok := l.Dequeue(10)
	if !ok || e.ID != 7 || e.Rank != 42 {
		t.Fatalf("Dequeue = %v, %v", e, ok)
	}
	if l.Len() != 0 || l.Contains(7) {
		t.Fatal("list not empty after dequeue")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRankOrdering(t *testing.T) {
	l := New(64)
	ranks := []uint64{50, 10, 99, 1, 75, 33, 60, 20}
	for i, r := range ranks {
		mustEnqueue(t, l, uint32(i), r, clock.Always)
	}
	want := []uint64{1, 10, 20, 33, 50, 60, 75, 99}
	for i, w := range want {
		e, ok := l.Dequeue(0)
		if !ok || e.Rank != w {
			t.Fatalf("Dequeue #%d = %v ok=%v, want rank %d", i, e, ok, w)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFIFOAmongEqualRanks(t *testing.T) {
	// §3.1: "If there are multiple eligible elements with the same
	// smallest rank value, then the element which was enqueued first is
	// dequeued."
	l := New(64)
	for id := uint32(0); id < 20; id++ {
		mustEnqueue(t, l, id, 5, clock.Always)
	}
	for id := uint32(0); id < 20; id++ {
		e, ok := l.Dequeue(0)
		if !ok || e.ID != id {
			t.Fatalf("Dequeue = %v ok=%v, want id %d (FIFO among equals)", e, ok, id)
		}
	}
}

func TestSmallestRankedEligible(t *testing.T) {
	// The smallest-ranked element is not eligible; dequeue must skip it.
	l := New(16)
	mustEnqueue(t, l, 1, 10, 100) // smallest rank, eligible at 100
	mustEnqueue(t, l, 2, 20, 5)   // eligible at 5
	mustEnqueue(t, l, 3, 30, 0)   // always eligible

	e, ok := l.Dequeue(6)
	if !ok || e.ID != 2 {
		t.Fatalf("Dequeue(6) = %v, want flow 2 (smallest ranked eligible)", e)
	}
	e, ok = l.Dequeue(6)
	if !ok || e.ID != 3 {
		t.Fatalf("Dequeue(6) = %v, want flow 3", e)
	}
	if _, ok := l.Dequeue(6); ok {
		t.Fatal("flow 1 dequeued before its send_time")
	}
	e, ok = l.Dequeue(100)
	if !ok || e.ID != 1 {
		t.Fatalf("Dequeue(100) = %v, want flow 1", e)
	}
}

// TestFig7StyleDequeue reproduces the documented outcome of the paper's
// Fig 7 walk-through: a 16-capacity list (sublists of 4) where a dequeue
// triggered at curr_time = 6 extracts element [flow 1, rank 50, send 5] —
// an ineligible smaller-ranked element is skipped, the source sublist was
// full, and Invariant 1 forces a refill from a neighbor.
func TestFig7StyleDequeue(t *testing.T) {
	l := New(16)
	// Lower-ranked elements that are not yet eligible at t=6.
	mustEnqueue(t, l, 7, 9, 88)
	mustEnqueue(t, l, 2, 9, 97)
	mustEnqueue(t, l, 0, 44, 34)
	mustEnqueue(t, l, 15, 0, 55)
	// The Fig 7 star: eligible at 5 with rank 50.
	mustEnqueue(t, l, 1, 50, 5)
	// Larger-ranked elements, some eligible, some not.
	mustEnqueue(t, l, 9, 62, 50)
	mustEnqueue(t, l, 11, 81, 5)
	mustEnqueue(t, l, 4, 102, 9)
	mustEnqueue(t, l, 8, 352, 5)
	mustEnqueue(t, l, 6, 402, 6)
	mustEnqueue(t, l, 3, 714, 0)
	mustEnqueue(t, l, 10, 753, 0)
	mustEnqueue(t, l, 12, 902, 12)
	mustEnqueue(t, l, 14, 921, 6)
	mustEnqueue(t, l, 13, 960, 9)

	e, ok := l.Dequeue(6)
	if !ok {
		t.Fatal("Dequeue(6) found nothing")
	}
	if e.ID != 1 || e.Rank != 50 || e.SendTime != 5 {
		t.Fatalf("Dequeue(6) = %v, want [1, 50, 5]", e)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFig6StyleEnqueueSpill drives the Fig 6 scenario: enqueueing into a
// full sublist whose right neighbor is also full must claim a fresh empty
// sublist for the pushed-out tail rather than cascading shifts.
func TestFig6StyleEnqueueSpill(t *testing.T) {
	l := New(16) // sublists of 4
	// Fill ranks 0..7 -> two full sublists.
	for id := uint32(0); id < 8; id++ {
		mustEnqueue(t, l, id, uint64(id*10), clock.Always)
	}
	// Insert a rank that lands inside the first (full) sublist.
	mustEnqueue(t, l, 100, 12, 2)
	snap := l.Snapshot()
	wantRanks := []uint64{0, 10, 12, 20, 30, 40, 50, 60, 70}
	if len(snap) != len(wantRanks) {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), len(wantRanks))
	}
	for i, w := range wantRanks {
		if snap[i].Rank != w {
			t.Fatalf("Snapshot[%d].Rank = %d, want %d (%v)", i, snap[i].Rank, w, snap)
		}
	}
	// The spill must have consumed a third sublist read/write pair.
	s := l.Stats()
	if s.SublistReads < 2 || s.SublistWrites < 2 {
		t.Fatalf("spilling enqueue did not touch two sublists: %+v", s)
	}
}

func TestDuplicateRejected(t *testing.T) {
	l := New(16)
	mustEnqueue(t, l, 1, 10, 0)
	if err := l.Enqueue(Entry{ID: 1, Rank: 99}); err != ErrDuplicate {
		t.Fatalf("duplicate Enqueue err = %v, want ErrDuplicate", err)
	}
	// After dequeue the id is usable again.
	l.Dequeue(0)
	mustEnqueue(t, l, 1, 99, 0)
}

func TestCapacityEnforced(t *testing.T) {
	l := New(8)
	for id := uint32(0); id < 8; id++ {
		mustEnqueue(t, l, id, uint64(id), clock.Always)
	}
	if err := l.Enqueue(Entry{ID: 99, Rank: 1}); err != ErrFull {
		t.Fatalf("over-capacity Enqueue err = %v, want ErrFull", err)
	}
	if l.Len() != 8 {
		t.Fatalf("Len = %d after rejected enqueue, want 8", l.Len())
	}
}

func TestDequeueFlow(t *testing.T) {
	l := New(32)
	for id := uint32(0); id < 10; id++ {
		mustEnqueue(t, l, id, uint64(100-id), clock.Never) // none eligible
	}
	e, ok := l.DequeueFlow(4)
	if !ok || e.ID != 4 {
		t.Fatalf("DequeueFlow(4) = %v, %v", e, ok)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.DequeueFlow(4); ok {
		t.Fatal("DequeueFlow(4) succeeded twice")
	}
	if l.Len() != 9 {
		t.Fatalf("Len = %d, want 9", l.Len())
	}
	// dequeue(f) works regardless of eligibility (clock.Never here).
	for _, id := range []uint32{0, 9, 5, 1, 8, 2, 7, 3, 6} {
		if _, ok := l.DequeueFlow(id); !ok {
			t.Fatalf("DequeueFlow(%d) failed", id)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
}

func TestNeverEligible(t *testing.T) {
	l := New(16)
	mustEnqueue(t, l, 1, 1, clock.Never)
	if _, ok := l.Dequeue(clock.Time(1) << 60); ok {
		t.Fatal("clock.Never element became eligible")
	}
}

func TestAlwaysEligible(t *testing.T) {
	l := New(16)
	mustEnqueue(t, l, 1, 1, clock.Always)
	if _, ok := l.Dequeue(0); !ok {
		t.Fatal("clock.Always element not eligible at t=0")
	}
}

func TestPeekDoesNotMutate(t *testing.T) {
	l := New(16)
	mustEnqueue(t, l, 1, 10, 5)
	mustEnqueue(t, l, 2, 20, 0)
	e, ok := l.Peek(3)
	if !ok || e.ID != 2 {
		t.Fatalf("Peek(3) = %v, want flow 2", e)
	}
	if l.Len() != 2 {
		t.Fatal("Peek mutated the list")
	}
	e2, _ := l.Peek(3)
	if e2 != e {
		t.Fatal("repeated Peek disagreed")
	}
}

func TestMinSendTime(t *testing.T) {
	l := New(16)
	mustEnqueue(t, l, 1, 10, 500)
	mustEnqueue(t, l, 2, 20, 100)
	mustEnqueue(t, l, 3, 30, 300)
	if got, ok := l.MinSendTime(); !ok || got != 100 {
		t.Fatalf("MinSendTime = %v,%v, want 100", got, ok)
	}
	l.DequeueFlow(2)
	if got, ok := l.MinSendTime(); !ok || got != 300 {
		t.Fatalf("MinSendTime = %v,%v, want 300", got, ok)
	}
}

func TestDequeueRange(t *testing.T) {
	l := New(32)
	// Node A owns ids 0-4, node B owns ids 5-9 (§4.3 logical PIEOs).
	mustEnqueue(t, l, 7, 1, clock.Always) // B, best rank overall
	mustEnqueue(t, l, 2, 5, clock.Always) // A
	mustEnqueue(t, l, 3, 3, clock.Never)  // A but never eligible
	mustEnqueue(t, l, 9, 9, clock.Always) // B

	e, ok := l.DequeueRange(0, 0, 4)
	if !ok || e.ID != 2 {
		t.Fatalf("DequeueRange(A) = %v, want flow 2", e)
	}
	e, ok = l.DequeueRange(0, 0, 4)
	if ok {
		t.Fatalf("DequeueRange(A) = %v, want none (flow 3 ineligible)", e)
	}
	e, ok = l.DequeueRange(0, 5, 9)
	if !ok || e.ID != 7 {
		t.Fatalf("DequeueRange(B) = %v, want flow 7", e)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPeekRange(t *testing.T) {
	l := New(32)
	mustEnqueue(t, l, 7, 1, clock.Always)
	mustEnqueue(t, l, 2, 5, clock.Always)
	e, ok := l.PeekRange(0, 0, 4)
	if !ok || e.ID != 2 {
		t.Fatalf("PeekRange = %v, want flow 2", e)
	}
	if l.Len() != 2 {
		t.Fatal("PeekRange mutated the list")
	}
}

func TestStatsCycleAccounting(t *testing.T) {
	l := New(16)
	mustEnqueue(t, l, 1, 1, clock.Always)
	mustEnqueue(t, l, 2, 2, clock.Always)
	l.Dequeue(0)
	l.DequeueFlow(2)
	s := l.Stats()
	if s.Enqueues != 2 || s.Dequeues != 1 || s.FlowDequeues != 1 {
		t.Fatalf("op counts wrong: %+v", s)
	}
	// Each primitive op is 4 cycles (§5.2).
	if s.Cycles != 16 {
		t.Fatalf("Cycles = %d, want 16 (4 ops x 4 cycles)", s.Cycles)
	}
	if _, ok := l.Dequeue(0); ok {
		t.Fatal("dequeue from empty succeeded")
	}
	if l.Stats().EmptyDequeues != 1 {
		t.Fatalf("EmptyDequeues = %d, want 1", l.Stats().EmptyDequeues)
	}
}

func TestAtMostTwoSublistsPerOp(t *testing.T) {
	// O(1) ops: each enqueue/dequeue touches at most two sublists
	// (reads and writes), independent of N.
	l := New(1024)
	rng := rand.New(rand.NewSource(3))
	var prev Stats
	for i := 0; i < 2000; i++ {
		prev = l.Stats()
		if l.Len() < l.Capacity() && (l.Len() == 0 || rng.Intn(3) > 0) {
			err := l.Enqueue(Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16)), SendTime: clock.Time(rng.Intn(64))})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			l.Dequeue(clock.Time(rng.Intn(64)))
		}
		cur := l.Stats()
		if reads := cur.SublistReads - prev.SublistReads; reads > 2 {
			t.Fatalf("op %d read %d sublists, want <= 2", i, reads)
		}
		if writes := cur.SublistWrites - prev.SublistWrites; writes > 2 {
			t.Fatalf("op %d wrote %d sublists, want <= 2", i, writes)
		}
	}
}

func TestSnapshotSorted(t *testing.T) {
	l := New(256)
	rng := rand.New(rand.NewSource(9))
	for id := uint32(0); id < 200; id++ {
		mustEnqueue(t, l, id, uint64(rng.Intn(100)), clock.Time(rng.Intn(50)))
	}
	snap := l.Snapshot()
	if len(snap) != 200 {
		t.Fatalf("Snapshot len = %d, want 200", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Rank < snap[i-1].Rank {
			t.Fatalf("Snapshot unsorted at %d: %v < %v", i, snap[i].Rank, snap[i-1].Rank)
		}
	}
}

func TestFillDrainFill(t *testing.T) {
	l := New(100)
	for round := 0; round < 3; round++ {
		for id := uint32(0); id < 100; id++ {
			mustEnqueue(t, l, id, uint64((id*37)%64), clock.Always)
		}
		if l.Len() != 100 {
			t.Fatalf("round %d: Len = %d", round, l.Len())
		}
		var prev uint64
		for i := 0; i < 100; i++ {
			e, ok := l.Dequeue(0)
			if !ok {
				t.Fatalf("round %d: drained early at %d", round, i)
			}
			if e.Rank < prev {
				t.Fatalf("round %d: rank went backwards %d -> %d", round, prev, e.Rank)
			}
			prev = e.Rank
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, n := range []int{0, -1} {
		mustPanic(fmt.Sprintf("New(%d)", n), func() { New(n) })
	}
	// S is capped at ⌈√N⌉ for the 2^32 residents 32-bit IDs allow.
	mustPanic("NewWithSublistSize(1<<20, 65536)", func() { NewWithSublistSize(1<<20, maxSublistSize+1) })
	if huge := int64(maxSublistSize*maxSublistSize + 1); int64(int(huge)) == huge {
		if l := New(int(huge)); l.SublistSize() != maxSublistSize {
			t.Errorf("New(%d) has sublists of %d, want the %d cap", huge, l.SublistSize(), maxSublistSize)
		}
	}

	// The largest sublist, filled past one: the spill passes through S+1
	// residents, and the refill and a flow dequeue reuse freed arena
	// slots.
	l := NewWithSublistSize(1<<20, maxSublistSize)
	const n = maxSublistSize + 8
	for id := uint32(0); id < n; id++ {
		if err := l.Enqueue(Entry{ID: id, Rank: uint64(id), SendTime: clock.Always}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{0, maxSublistSize / 2, maxSublistSize - 1} {
		if e, ok := l.DequeueFlow(id); !ok || e.ID != id {
			t.Fatalf("DequeueFlow(%d) = %v,%v", id, e, ok)
		}
		if err := l.Enqueue(Entry{ID: n + id, Rank: uint64(id), SendTime: clock.Always}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != n || l.active != 2 {
		t.Fatalf("%d residents in %d sublists, want %d in 2", l.Len(), l.active, n)
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{ID: 1, Rank: 50, SendTime: 5}
	if got := e.String(); got != "[1, 50, 5]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSublistSizeAblationGeometries(t *testing.T) {
	// The list must stay correct for any sublist size, not just sqrt(N).
	for _, s := range []int{1, 2, 3, 7, 16, 64} {
		l := NewWithSublistSize(64, s)
		for id := uint32(0); id < 64; id++ {
			if err := l.Enqueue(Entry{ID: id, Rank: uint64(64 - id), SendTime: clock.Always}); err != nil {
				t.Fatalf("s=%d: %v", s, err)
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("s=%d after enqueue %d: %v", s, id, err)
			}
		}
		var prev uint64
		for i := 0; i < 64; i++ {
			e, ok := l.Dequeue(0)
			if !ok || e.Rank < prev {
				t.Fatalf("s=%d: bad dequeue %v ok=%v prev=%d", s, e, ok, prev)
			}
			prev = e.Rank
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("s=%d after dequeue %d: %v", s, i, err)
			}
		}
	}
}

func TestSublistBudgetNeverExhausted(t *testing.T) {
	// Invariant 1's storage bound: the 2*ceil(N/S)+2 sublists must
	// suffice under adversarial full/partial fragmentation patterns.
	// Drive interleaved enqueue bursts and targeted dequeues designed to
	// fragment (dequeue every other element by rank), at full capacity.
	const n = 256
	l := New(n)
	for i := uint32(0); i < n; i++ {
		mustEnqueue(t, l, i, uint64(i), clock.Always)
	}
	// Remove alternating elements (by current rank order) to create
	// maximal partial-fill, then refill; repeat. The empty partition
	// must never run dry (Enqueue would panic if it did).
	next := uint32(n)
	for round := 0; round < 10; round++ {
		snap := l.Snapshot()
		for i := round % 2; i < len(snap); i += 2 {
			if _, ok := l.DequeueFlow(snap[i].ID); !ok {
				t.Fatalf("round %d: snapshot id %d missing", round, snap[i].ID)
			}
		}
		for l.Len() < n {
			mustEnqueue(t, l, next, uint64(next%61), clock.Always)
			next++
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func ExampleList() {
	l := New(16)
	l.Enqueue(Entry{ID: 1, Rank: 10, SendTime: 100}) // eligible at t=100
	l.Enqueue(Entry{ID: 2, Rank: 20, SendTime: 0})   // always eligible

	e, _ := l.Dequeue(50) // flow 1 not yet eligible: flow 2 wins despite larger rank
	fmt.Println(e)
	e, _ = l.Dequeue(100) // now flow 1 is eligible
	fmt.Println(e)
	// Output:
	// [2, 20, 0]
	// [1, 10, 100]
}
