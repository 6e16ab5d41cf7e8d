package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pieo/internal/clock"
)

func TestMinRankAtLeast(t *testing.T) {
	l := New(64)
	for _, r := range []uint64{10, 20, 30, 40, 50} {
		mustEnqueue(t, l, uint32(r), r, clock.Never) // eligibility irrelevant
	}
	cases := []struct {
		lo     uint64
		want   uint64
		wantOK bool
	}{
		{0, 10, true},
		{10, 10, true},
		{11, 20, true},
		{35, 40, true},
		{50, 50, true},
		{51, 0, false},
	}
	for _, c := range cases {
		e, ok := l.MinRankAtLeast(c.lo)
		if ok != c.wantOK || (ok && e.Rank != c.want) {
			t.Fatalf("MinRankAtLeast(%d) = %v,%v, want %d,%v", c.lo, e, ok, c.want, c.wantOK)
		}
	}
	if l.Len() != 5 {
		t.Fatal("MinRankAtLeast mutated the list")
	}
}

func TestDequeueRankRange(t *testing.T) {
	l := New(64)
	for _, r := range []uint64{10, 20, 30, 40, 50} {
		mustEnqueue(t, l, uint32(r), r, clock.Never)
	}
	if _, ok := l.DequeueRankRange(21, 29); ok {
		t.Fatal("empty range returned an entry")
	}
	e, ok := l.DequeueRankRange(15, 45)
	if !ok || e.Rank != 20 {
		t.Fatalf("DequeueRankRange(15,45) = %v,%v, want rank 20", e, ok)
	}
	e, ok = l.DequeueRankRange(15, 45)
	if !ok || e.Rank != 30 {
		t.Fatalf("second DequeueRankRange = %v, want rank 30", e)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
}

func TestUpdateRank(t *testing.T) {
	l := New(64)
	mustEnqueue(t, l, 1, 50, clock.Never)
	mustEnqueue(t, l, 2, 10, clock.Always)
	if !l.UpdateRank(1, 5, clock.Always) {
		t.Fatal("UpdateRank reported missing flow")
	}
	if l.UpdateRank(99, 1, clock.Always) {
		t.Fatal("UpdateRank invented a flow")
	}
	e, ok := l.Dequeue(0)
	if !ok || e.ID != 1 || e.Rank != 5 {
		t.Fatalf("Dequeue = %v,%v, want updated flow 1", e, ok)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRankRangeTouchesAtMostTwoSublists(t *testing.T) {
	l := New(1024)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1024; i++ {
		mustEnqueue(t, l, uint32(i), uint64(rng.Intn(1<<16)), clock.Always)
	}
	for i := 0; i < 500; i++ {
		before := l.Stats()
		lo := uint64(rng.Intn(1 << 16))
		e, ok := l.DequeueRankRange(lo, lo+1000)
		after := l.Stats()
		if reads := after.SublistReads - before.SublistReads; reads > 2 {
			t.Fatalf("range dequeue read %d sublists", reads)
		}
		if ok {
			if e.Rank < lo || e.Rank > lo+1000 {
				t.Fatalf("out-of-range rank %d for [%d,%d]", e.Rank, lo, lo+1000)
			}
			if err := l.Enqueue(e); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Property: DequeueRankRange returns exactly the minimum in-range rank,
// matching a brute-force scan of the snapshot.
func TestDequeueRankRangeProperty(t *testing.T) {
	f := func(ranks []uint16, lo16, span uint16) bool {
		if len(ranks) == 0 {
			return true
		}
		if len(ranks) > 256 {
			ranks = ranks[:256]
		}
		l := New(len(ranks))
		for i, r := range ranks {
			if err := l.Enqueue(Entry{ID: uint32(i), Rank: uint64(r), SendTime: clock.Never}); err != nil {
				return false
			}
		}
		lo, hi := uint64(lo16), uint64(lo16)+uint64(span)
		// Brute force expectation.
		var want *Entry
		for _, e := range l.Snapshot() {
			if e.Rank >= lo && e.Rank <= hi {
				e := e
				want = &e
				break // snapshot is rank-sorted with FIFO ties
			}
		}
		got, ok := l.DequeueRankRange(lo, hi)
		if want == nil {
			return !ok
		}
		if !ok || got != *want {
			return false
		}
		return l.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinRankAtLeast agrees with the snapshot scan and never
// mutates.
func TestMinRankAtLeastProperty(t *testing.T) {
	f := func(ranks []uint16, lo16 uint16) bool {
		if len(ranks) == 0 {
			return true
		}
		if len(ranks) > 256 {
			ranks = ranks[:256]
		}
		l := New(len(ranks))
		for i, r := range ranks {
			if err := l.Enqueue(Entry{ID: uint32(i), Rank: uint64(r), SendTime: clock.Always}); err != nil {
				return false
			}
		}
		lo := uint64(lo16)
		var want *Entry
		for _, e := range l.Snapshot() {
			if e.Rank >= lo {
				e := e
				want = &e
				break
			}
		}
		got, ok := l.MinRankAtLeast(lo)
		if want == nil {
			return !ok && l.Len() == len(ranks)
		}
		return ok && got == *want && l.Len() == len(ranks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
