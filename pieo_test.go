package pieo

import (
	"fmt"
	"testing"
)

func TestPublicListAPI(t *testing.T) {
	l := NewList(64)
	if err := l.Enqueue(Entry{ID: 1, Rank: 10, SendTime: 100}); err != nil {
		t.Fatal(err)
	}
	if err := l.Enqueue(Entry{ID: 2, Rank: 20, SendTime: Always}); err != nil {
		t.Fatal(err)
	}
	if err := l.Enqueue(Entry{ID: 1, Rank: 1}); err != ErrDuplicate {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	e, ok := l.Dequeue(50)
	if !ok || e.ID != 2 {
		t.Fatalf("Dequeue(50) = %v,%v, want flow 2", e, ok)
	}
	e, ok = l.Dequeue(100)
	if !ok || e.ID != 1 {
		t.Fatalf("Dequeue(100) = %v,%v, want flow 1", e, ok)
	}
}

func TestPublicSchedulerAPI(t *testing.T) {
	s := NewScheduler(WF2Q(), 8, 40)
	s.SetWeight(1, 3)
	s.SetWeight(2, 1)
	for i := 0; i < 4; i++ {
		s.OnArrival(0, Packet{Flow: 1, Size: 1500, Seq: uint64(i)})
		s.OnArrival(0, Packet{Flow: 2, Size: 1500, Seq: uint64(10 + i)})
	}
	counts := map[FlowID]int{}
	for i := 0; i < 8; i++ {
		p, ok := s.NextPacket(Time(i))
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		counts[p.Flow]++
	}
	if counts[1] != 4 || counts[2] != 4 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestPublicHierarchyAPI(t *testing.T) {
	h := NewHierarchy(40, TokenBucketPolicy())
	vm := h.Root().AddNode("vm0", WF2QPolicy())
	vm.AddFlow(1)
	vm.AddFlow(2)
	h.Build()
	vm.Self().RateGbps = 10
	vm.Self().Burst = 3000
	vm.Self().Tokens = 3000

	h.OnArrival(0, Packet{Flow: 1, Size: 1500})
	h.OnArrival(0, Packet{Flow: 2, Size: 1500})
	p, ok := h.NextPacket(0)
	if !ok {
		t.Fatal("NextPacket failed")
	}
	if p.Flow != 1 && p.Flow != 2 {
		t.Fatalf("unexpected flow %d", p.Flow)
	}
}

func TestPublicSimAPI(t *testing.T) {
	s := NewScheduler(FIFO(), 4, 100)
	sim := NewSim(Link{RateGbps: 100}, s)
	var sent int
	sim.OnTransmit = func(now Time, p Packet) { sent++ }
	sim.InjectOne(0, Packet{Flow: 1, Size: 1500})
	sim.Run(1_000_000)
	if sent != 1 {
		t.Fatalf("sent = %d, want 1", sent)
	}
}

// TestPublicHealthAPI pins the health surface reached through the
// facade: ShardedList.Health reports occupancy against capacity, and
// FaultStats reads zero.
func TestPublicHealthAPI(t *testing.T) {
	sl := NewShardedList(1024, 4)
	if err := sl.Enqueue(Entry{ID: 1, Rank: 10, SendTime: Always}); err != nil {
		t.Fatal(err)
	}
	hr := sl.Health()
	if hr.Occupancy != 1 || hr.Capacity != 1024 {
		t.Fatalf("sharded health = %+v", hr)
	}
	if f := hr.OccupancyFraction(); f != 1.0/1024 {
		t.Fatalf("occupancy fraction = %v", f)
	}
	if fs := sl.FaultStats(); fs.Quarantines != 0 || fs.LostEntries != 0 {
		t.Fatalf("fault stats = %+v, want zero", fs)
	}
}

// ExampleNewList demonstrates the quickstart: eligibility-filtered
// dequeue from an ordered list.
func ExampleNewList() {
	l := NewList(16)
	l.Enqueue(Entry{ID: 1, Rank: 10, SendTime: 100}) // eligible at t=100
	l.Enqueue(Entry{ID: 2, Rank: 20, SendTime: Always})

	e, _ := l.Dequeue(50)
	fmt.Println("at t=50: ", e)
	e, _ = l.Dequeue(100)
	fmt.Println("at t=100:", e)
	// Output:
	// at t=50:  [2, 20, 0]
	// at t=100: [1, 10, 100]
}
