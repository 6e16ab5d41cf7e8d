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

func TestPublicHardwareModel(t *testing.T) {
	r := PIEOResources(PIEOGeometry(30000))
	if !r.FitsOn(StratixV) {
		t.Fatal("PIEO@30K does not fit the paper's device")
	}
	if PIFOResources(2048).FitsOn(StratixV) {
		t.Fatal("PIFO@2K fits; it must not")
	}
	if mhz := PIEOClockMHz(PIEOGeometry(30000)); mhz < 70 || mhz > 90 {
		t.Fatalf("clock = %v, want ~80", mhz)
	}
}

// TestPublicHealthAPI pins the self-healing supervision surface on the
// facade: HealthOf on the sharded engine and SyncList, and MTTR from
// the fault log.
func TestPublicHealthAPI(t *testing.T) {
	sl := NewShardedList(1024, 4)
	if err := sl.Enqueue(Entry{ID: 1, Rank: 10, SendTime: Always}); err != nil {
		t.Fatal(err)
	}
	hr, ok := HealthOf(sl)
	if !ok {
		t.Fatal("sharded engine does not report health")
	}
	if hr.Occupancy != 1 || hr.Capacity != 1024 || hr.DownShards != 0 || len(hr.Shards) != 4 {
		t.Fatalf("sharded health = %+v", hr)
	}
	for _, sh := range hr.Shards {
		if !sh.Up || sh.Phase != BreakerClosed {
			t.Fatalf("healthy shard reports %+v", sh)
		}
	}

	sync := NewSyncList(64)
	if err := sync.Enqueue(Entry{ID: 9, Rank: 1, SendTime: Always}); err != nil {
		t.Fatal(err)
	}
	hr, ok = HealthOf(sync)
	if !ok {
		t.Fatal("SyncList does not report health")
	}
	if hr.Occupancy != 1 || hr.Capacity != 64 || len(hr.Shards) != 1 || hr.Shards[0].Phase != BreakerClosed {
		t.Fatalf("synclist health = %+v", hr)
	}
	if f := hr.OccupancyFraction(); f <= 0 || f > 1 {
		t.Fatalf("occupancy fraction = %v", f)
	}

	if rec, total, max := MTTRFromEvents(nil); rec != 0 || total != 0 || max != 0 {
		t.Fatalf("MTTR of empty log = %d/%v/%v", rec, total, max)
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
