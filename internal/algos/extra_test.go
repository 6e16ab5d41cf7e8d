package algos

import (
	"math"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/sched"
	"pieo/internal/stats"
)

func TestSFQFairAcrossBuckets(t *testing.T) {
	// SFQ's guarantee is per-BUCKET fairness: colliding flows split one
	// bucket's share. Aggregate by the program's own hash and require
	// bucket shares to be equal.
	const buckets = 17
	bytes := runBacklogged(t, SFQ(buckets), 8, 1500, 2_000_000, nil)
	bucketBytes := map[int]float64{}
	usedBuckets := map[int]bool{}
	for i := 0; i < 8; i++ {
		b := int((uint32(i) * 2654435761) % uint32(buckets))
		bucketBytes[b] += float64(bytes[flowq.FlowID(i)])
		usedBuckets[b] = true
	}
	var shares []float64
	for b := range usedBuckets {
		shares = append(shares, bucketBytes[b])
	}
	if j := stats.JainIndex(shares); j < 0.999 {
		t.Fatalf("SFQ per-bucket Jain = %v (%v)", j, bucketBytes)
	}
}

func TestSFQCollidingFlowsShareOneBucket(t *testing.T) {
	// Two flows forced into the same bucket (buckets=1) rotate within
	// it: neither starves and they split the bucket evenly.
	bytes := runBacklogged(t, SFQ(1), 2, 1500, 1_000_000, nil)
	if bytes[0] == 0 || bytes[1] == 0 {
		t.Fatalf("a colliding flow starved: %v", bytes)
	}
	if r := shareRatio(bytes, 0, 1); math.Abs(r-1) > 0.05 {
		t.Fatalf("colliding flows split %v, want ~1:1", r)
	}
}

// TestSFQDeterministic: a served bucket re-ranks its other members, and
// the FIFO tie-break among them follows the order they are re-ranked in,
// so that order must not vary from run to run. Two buckets for twelve
// flows put six members in each.
func TestSFQDeterministic(t *testing.T) {
	arrivals := goldenArrivals()
	var first []transmission
	for run := 0; run < 5; run++ {
		got := transmissions(sched.New(SFQ(2), 16, linkGbps), arrivals)
		if len(got) != len(arrivals) {
			t.Fatalf("run %d: sent %d of %d arrivals", run, len(got), len(arrivals))
		}
		if run == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d: transmission %d is %+v, run 0 sent %+v", run, i, got[i], first[i])
			}
		}
	}
}

func TestSFQValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SFQ(0) did not panic")
		}
	}()
	SFQ(0)
}

func TestTDMASlotExclusivity(t *testing.T) {
	// Two flows, 1000 ns slots: flow 0 owns [0,1000), [2000,3000), ...;
	// flow 1 owns [1000,2000), [3000,4000), ...
	const slot = clock.Time(1000)
	s := sched.New(TDMA(2, slot), 4, 40)
	sim := netsim.New(netsim.Link{RateGbps: 40}, s)
	var done []struct {
		at   clock.Time
		flow flowq.FlowID
	}
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		done = append(done, struct {
			at   clock.Time
			flow flowq.FlowID
		}{now, p.Flow})
	}
	for i := 0; i < 3; i++ {
		sim.InjectOne(0, flowq.Packet{Flow: 0, Size: 1500, Seq: uint64(i)})
		sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, Seq: uint64(10 + i)})
	}
	sim.Run(100_000)
	if len(done) != 6 {
		t.Fatalf("transmitted %d, want 6", len(done))
	}
	for _, d := range done {
		// A packet completing at `at` started at at-300; its start slot
		// must belong to its flow.
		start := d.at - 300
		slotIdx := uint64(start / slot)
		if flowq.FlowID(slotIdx%2) != d.flow {
			t.Fatalf("flow %d transmitted in slot %d (start %v): %v", d.flow, slotIdx, start, done)
		}
	}
}

func TestTDMANonWorkConserving(t *testing.T) {
	// A single backlogged flow in a 4-flow TDMA uses at most ~1/4 of the
	// link even though it is alone.
	const slot = clock.Time(1200) // 4 MTU-wire-times per slot at 40G
	s := sched.New(TDMA(4, slot), 8, 40)
	sim := netsim.New(netsim.Link{RateGbps: 40}, s)
	var seq uint64
	var bytes uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: 0, Size: 1500, Seq: seq})
	}
	for k := 0; k < 4; k++ {
		seq++
		sim.InjectOne(0, flowq.Packet{Flow: 0, Size: 1500, Seq: seq})
	}
	duration := clock.Time(1_000_000)
	sim.Run(duration)
	gbps := float64(bytes) * 8 / float64(duration)
	if gbps > 11.5 { // 1/4 of 40G = 10, allow slot-edge slack
		t.Fatalf("TDMA flow got %.1f Gbps, want <= ~10 (one slot in four)", gbps)
	}
	if gbps < 8 {
		t.Fatalf("TDMA flow got %.1f Gbps, want ~10 (should fill its own slots)", gbps)
	}
}

// TestTDMASlotIsIDModFlows: flow id owns slot id mod nFlows of every
// cycle, so a high ID waits no extra cycles for its first slot.
func TestTDMASlotIsIDModFlows(t *testing.T) {
	s := sched.New(TDMA(4, 1000), 16, 40)
	for _, id := range []flowq.FlowID{1, 5, 13} {
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
		if got := s.Flow(id).SendTime; got != 1000 {
			t.Errorf("flow %d: send time %v, want 1000 (slot 1 of the first cycle)", id, got)
		}
	}
}

func TestTDMAValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TDMA(0,0) did not panic")
		}
	}()
	TDMA(0, 0)
}

func TestTokenBucketInputEnforcesRate(t *testing.T) {
	const limit = 5.0
	s := sched.New(TokenBucketInput(), 2, 40)
	f := s.Flow(1)
	f.RateGbps = limit
	f.Burst = 1500
	f.Tokens = f.Burst

	sim := netsim.New(netsim.Link{RateGbps: 40}, s)
	meter := stats.NewRateMeter(0)
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		meter.Record(now, p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: 1, Size: 1500, Seq: seq})
	}
	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, Seq: 0})
	duration := clock.Time(10_000_000)
	sim.Run(duration)
	meter.CloseAt(duration)
	if got := meter.Gbps(); math.Abs(got-limit) > 0.4 {
		t.Fatalf("input-triggered TB rate = %v, want ~%v", got, limit)
	}
}
