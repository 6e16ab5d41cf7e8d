package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pieo/internal/clock"
	"pieo/internal/flowq"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
	if _, ok := q.PeekTime(); ok {
		t.Fatalf("PeekTime on empty queue reported ok")
	}
	if _, ok := q.Pop(); ok {
		t.Fatalf("Pop on empty queue reported ok")
	}
}

func TestPopOrder(t *testing.T) {
	var q Queue
	times := []clock.Time{50, 10, 30, 10, 99, 0, 30}
	for _, at := range times {
		q.Push(at, Wake, flowq.Packet{})
	}
	want := append([]clock.Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		ev, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop #%d: queue empty early", i)
		}
		if ev.At != w {
			t.Fatalf("Pop #%d: At = %v, want %v", i, ev.At, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained, Len() = %d", q.Len())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	// Ten events of mixed kinds at one instant, an earlier and a later
	// one pushed in between: same-time events leave in push order
	// whatever their kind, carrying the packet they were pushed with.
	kinds := []Kind{Arrival, TxDone, Wake, Arrival, Arrival, Wake, TxDone, TxDone, Arrival, Wake}
	for i, k := range kinds {
		q.Push(42, k, flowq.Packet{Seq: uint64(i)})
		if i == 3 {
			q.Push(7, Wake, flowq.Packet{})
			q.Push(99, Arrival, flowq.Packet{})
		}
	}
	if ev, _ := q.Pop(); ev.At != 7 {
		t.Fatalf("first event at %v, want 7", ev.At)
	}
	for i, k := range kinds {
		ev, ok := q.Pop()
		if !ok || ev.At != 42 || ev.Kind != k || ev.Pkt.Seq != uint64(i) {
			t.Fatalf("same-time event %d: got (%v, kind %d, seq %d, ok %v), want (42, kind %d, seq %d)",
				i, ev.At, ev.Kind, ev.Pkt.Seq, ok, k, i)
		}
	}
	if ev, _ := q.Pop(); ev.At != 99 || q.Len() != 0 {
		t.Fatalf("last event at %v with %d left, want 99 and none", ev.At, q.Len())
	}
}

// A burst's backing array is given back as the queue drains, and the
// events that remain survive every move to a smaller array.
func TestCapacityGiveBack(t *testing.T) {
	var q Queue
	const burst = 100_000
	for i := 0; i < burst; i++ {
		q.Push(clock.Time(i%977), Arrival, flowq.Packet{Seq: uint64(i)})
	}
	if cap(q.heap) < burst {
		t.Fatalf("cap %d after %d pushes", cap(q.heap), burst)
	}
	var prev Event
	for i := 0; q.Len() > 2; i++ {
		ev, _ := q.Pop()
		if i > 0 && !before(&prev, &ev) {
			t.Fatalf("pop %d: (%v, seq %d) after (%v, seq %d)", i, ev.At, ev.Pkt.Seq, prev.At, prev.Pkt.Seq)
		}
		if ev.At != clock.Time(ev.Pkt.Seq%977) {
			t.Fatalf("pop %d: event at %v carries packet %d", i, ev.At, ev.Pkt.Seq)
		}
		prev = ev
		if c := cap(q.heap); c > minCap && q.Len() < c/4 {
			t.Fatalf("pop %d: %d events in a backing array of %d", i, q.Len(), c)
		}
	}
	if c := cap(q.heap); c != minCap {
		t.Fatalf("steady state of 2 events keeps cap %d, want %d", c, minCap)
	}
	// The steady state of a closed loop — push one, pop one — never
	// touches the allocator.
	if a := testing.AllocsPerRun(1000, func() {
		q.Push(1000, TxDone, flowq.Packet{})
		q.Pop()
	}); a != 0 {
		t.Fatalf("steady-state push+pop allocates %v times", a)
	}
}

func TestPeekMatchesPop(t *testing.T) {
	var q Queue
	q.Push(7, Wake, flowq.Packet{})
	q.Push(3, Wake, flowq.Packet{})
	at, ok := q.PeekTime()
	if !ok || at != 3 {
		t.Fatalf("PeekTime = %v,%v want 3,true", at, ok)
	}
	ev, _ := q.Pop()
	if ev.At != 3 {
		t.Fatalf("Pop.At = %v, want 3", ev.At)
	}
}

func TestInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	var drained []clock.Time
	pending := 0
	var floor clock.Time // simulation time never goes backwards
	for i := 0; i < 5000; i++ {
		if pending == 0 || rng.Intn(2) == 0 {
			q.Push(floor+clock.Time(rng.Intn(1000)), Wake, flowq.Packet{})
			pending++
		} else {
			ev, ok := q.Pop()
			if !ok {
				t.Fatalf("Pop failed with %d pending", pending)
			}
			if ev.At < floor {
				t.Fatalf("event time %v went backwards past %v", ev.At, floor)
			}
			floor = ev.At
			drained = append(drained, ev.At)
			pending--
		}
	}
	for i := 1; i < len(drained); i++ {
		if drained[i] < drained[i-1] {
			t.Fatalf("drained times not monotone at %d: %v < %v", i, drained[i], drained[i-1])
		}
	}
}

// Property: popping everything returns a sorted permutation of what was
// pushed.
func TestHeapSortProperty(t *testing.T) {
	f := func(times []uint32) bool {
		var q Queue
		for _, at := range times {
			q.Push(clock.Time(at), Wake, flowq.Packet{})
		}
		got := make([]clock.Time, 0, len(times))
		for {
			ev, ok := q.Pop()
			if !ok {
				break
			}
			got = append(got, ev.At)
		}
		if len(got) != len(times) {
			return false
		}
		want := make([]clock.Time, len(times))
		for i, at := range times {
			want[i] = clock.Time(at)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
