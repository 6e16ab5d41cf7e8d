package refmodel

import (
	"errors"
	"slices"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// Every differential suite trusts this model, so the model itself is
// pinned on cases small enough to compute by hand from §3.1: the list is
// ordered by rank with FIFO among equals, dequeue extracts the first
// element whose send_time has passed, dequeue(f) ignores eligibility, and
// a ranged dequeue adds lo <= id <= hi (both inclusive) to the predicate.

type op struct {
	kind   string // enq, deq, deqf, deqr, peek
	e      core.Entry
	now    clock.Time
	lo, hi uint32
	want   uint32 // id expected back; ignored when miss
	miss   bool
	err    error // enq only
}

func enq(id uint32, rank uint64, send clock.Time) op {
	return op{kind: "enq", e: core.Entry{ID: id, Rank: rank, SendTime: send}}
}
func enqErr(id uint32, rank uint64, err error) op {
	return op{kind: "enq", e: core.Entry{ID: id, Rank: rank}, err: err}
}
func deq(now clock.Time, want uint32) op  { return op{kind: "deq", now: now, want: want} }
func deqMiss(now clock.Time) op           { return op{kind: "deq", now: now, miss: true} }
func peek(now clock.Time, want uint32) op { return op{kind: "peek", now: now, want: want} }
func deqf(id uint32) op                   { return op{kind: "deqf", want: id} }
func deqfMiss(id uint32) op               { return op{kind: "deqf", want: id, miss: true} }
func deqr(now clock.Time, lo, hi, want uint32) op {
	return op{kind: "deqr", now: now, lo: lo, hi: hi, want: want}
}
func deqrMiss(now clock.Time, lo, hi uint32) op {
	return op{kind: "deqr", now: now, lo: lo, hi: hi, miss: true}
}

func TestSpecByHand(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		ops      []op
		left     []uint32 // ids remaining, in list order
	}{
		{
			name: "rank order, FIFO among equal ranks", capacity: 8,
			ops: []op{
				enq(1, 5, 0), enq(2, 3, 0), enq(3, 5, 0), enq(4, 3, 0), enq(5, 4, 0),
				deq(0, 2), deq(0, 4), deq(0, 5), deq(0, 1), deq(0, 3), deqMiss(0),
			},
		},
		{
			name: "FIFO is arrival order, not id order, and survives a re-enqueue", capacity: 4,
			ops: []op{
				enq(9, 7, 0), enq(1, 7, 0), deqf(9), enq(9, 7, 0),
				deq(0, 1), deq(0, 9),
			},
		},
		{
			name: "eligibility filters before rank: smallest-ranked ELIGIBLE element", capacity: 4,
			ops: []op{
				enq(1, 1, 100), enq(2, 2, 50), enq(3, 3, 10),
				deqMiss(9), peek(10, 3), deq(10, 3), deq(60, 2), deqMiss(99), deq(100, 1),
			},
		},
		{
			name: "Always is eligible at time zero, Never at no time", capacity: 4,
			ops: []op{
				enq(1, 1, clock.Never), enq(2, 2, clock.Always),
				deq(0, 2), deqMiss(clock.Never - 1),
				// curr_time >= send_time holds at now = Never itself; no
				// caller reaches that tick.
				deq(clock.Never, 1),
			},
		},
		{
			name: "dequeue(f) extracts an ineligible element; unknown id misses", capacity: 4,
			ops: []op{
				enq(1, 1, clock.Never), enq(2, 2, 500),
				deqfMiss(7), deqf(2), deqf(1), deqfMiss(1),
			},
		},
		{
			name: "ranged dequeue: bounds inclusive, rank order inside the range, eligibility still applies", capacity: 8,
			ops: []op{
				enq(10, 5, 0), enq(11, 4, 0), enq(12, 3, 90), enq(13, 2, 0), enq(20, 1, 0),
				deqrMiss(0, 14, 19),    // between residents
				deqr(0, 10, 12, 11),    // 12 outranks 11 but is ineligible
				deqr(0, 10, 10, 10),    // lo == hi == id
				deqr(0, 13, 20, 20),    // hi inclusive, and 20 outranks 13
				deqr(0, 0, 13, 13),     // hi inclusive
				deqrMiss(89, 0, 1<<31), // only 12 left, not yet eligible
				deqr(90, 12, 12, 12),
			},
		},
		{
			name: "full beats duplicate; a refused enqueue changes nothing", capacity: 2,
			ops: []op{
				enq(1, 1, 0), enqErr(1, 9, core.ErrDuplicate), enq(2, 2, 0),
				enqErr(1, 0, core.ErrFull), enqErr(3, 0, core.ErrFull),
				deq(0, 1), deq(0, 2),
			},
		},
		{
			// cmd/pieotrace's Fig 6/7 state and the three extractions its
			// smoke test pins, then the rest of the list drained by hand.
			name: "Fig 6/7 walk-through", capacity: 16,
			ops: []op{
				enq(7, 9, 88), enq(2, 9, 97), enq(0, 44, 34), enq(15, 0, 55), enq(1, 50, 5),
				enq(9, 62, 50), enq(11, 81, 5), enq(4, 102, 9), enq(8, 352, 5), enq(6, 402, 6),
				enq(3, 714, 0), enq(10, 753, 0), enq(12, 902, 12), enq(14, 921, 6), enq(13, 960, 9),
				enq(5, 12, 2), // Fig 6: lands between the rank-9 pair and rank 44
				deq(6, 5),     // Fig 7: ranks 0 and 9 are ahead of it but not yet eligible
				deqf(9),
				deq(6, 1), deq(6, 11), deq(6, 8), deq(6, 6), deq(6, 3), deq(6, 10), deq(6, 14), deqMiss(6),
				deq(9, 4), deq(9, 13), deqMiss(11), deq(12, 12),
				deq(55, 15), deq(55, 0), deqMiss(87),
			},
			left: []uint32{7, 2}, // equal rank 9, arrival order
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := New(c.capacity)
			for i, o := range c.ops {
				before := l.Snapshot()
				var got core.Entry
				ok := true
				switch o.kind {
				case "enq":
					if err := l.Enqueue(o.e); !errors.Is(err, o.err) {
						t.Fatalf("op %d: Enqueue(%v) = %v, want %v", i, o.e, err, o.err)
					} else if err != nil && !slices.Equal(before, l.Snapshot()) {
						t.Fatalf("op %d: refused Enqueue(%v) changed the list", i, o.e)
					}
					continue
				case "deq":
					got, ok = l.Dequeue(o.now)
				case "peek":
					got, ok = l.Peek(o.now)
					if !slices.Equal(before, l.Snapshot()) {
						t.Fatalf("op %d: Peek changed the list", i)
					}
				case "deqf":
					got, ok = l.DequeueFlow(o.want)
				case "deqr":
					got, ok = l.DequeueRange(o.now, o.lo, o.hi)
				}
				if ok == o.miss || (ok && got.ID != o.want) {
					t.Fatalf("op %d: %s(now=%v, [%d,%d]) = %v,%v; want id %d, miss=%v",
						i, o.kind, o.now, o.lo, o.hi, got, ok, o.want, o.miss)
				}
				if ok && l.Contains(got.ID) != (o.kind == "peek") {
					t.Fatalf("op %d: Contains(%d) wrong after %s", i, got.ID, o.kind)
				}
			}
			snap := l.Snapshot()
			if len(snap) != len(c.left) || l.Len() != len(c.left) {
				t.Fatalf("left %v (Len %d), want ids %v", snap, l.Len(), c.left)
			}
			for i, id := range c.left {
				if snap[i].ID != id {
					t.Fatalf("left %v, want ids %v in that order", snap, c.left)
				}
			}
		})
	}
}

func TestMinSendTimeAndStats(t *testing.T) {
	l := New(4)
	if _, ok := l.MinSendTime(); ok {
		t.Fatal("MinSendTime on an empty list reported a value")
	}
	for _, e := range []core.Entry{{ID: 1, Rank: 1, SendTime: clock.Never}, {ID: 2, Rank: 2, SendTime: 40}, {ID: 3, Rank: 0, SendTime: 70}} {
		if err := l.Enqueue(e); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := l.MinSendTime(); !ok || got != 40 {
		t.Fatalf("MinSendTime = %v,%v, want 40", got, ok)
	}
	l.Dequeue(10)            // miss
	l.Dequeue(40)            // id 2
	l.DequeueRange(70, 3, 3) // id 3
	l.DequeueFlow(1)
	if got, ok := l.MinSendTime(); ok {
		t.Fatalf("MinSendTime = %v,true after draining", got)
	}
	s := l.Stats()
	if s.Enqueues != 3 || s.Dequeues != 1 || s.EmptyDequeues != 1 || s.RangeDequeues != 1 || s.FlowDequeues != 1 {
		t.Fatalf("stats %+v, want 3 enqueues, 1 dequeue, 1 empty, 1 range, 1 flow", s)
	}
}
