package sched_test

import (
	"testing"

	"pieo/internal/algos"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/sched"
	"pieo/internal/stats"
)

// The paper's scalability claim is functional, not just a resource
// count: the scheduler must actually handle "tens of thousands of
// flows". These tests run 30K concurrent flows through the PIEO
// scheduler end to end.

func TestThirtyThousandFlowsFairShare(t *testing.T) {
	if testing.Short() {
		t.Skip("30K-flow run")
	}
	const nFlows = 30000
	s := sched.New(algos.WF2Q(), nFlows, 100)

	// One packet per flow, all backlogged at t=0.
	var seq uint64
	for f := 0; f < nFlows; f++ {
		seq++
		s.OnArrival(0, flowq.Packet{Flow: flowq.FlowID(f), Size: 1500, Seq: seq})
	}
	if s.List.Len() != nFlows {
		t.Fatalf("list holds %d flows, want %d", s.List.Len(), nFlows)
	}
	if err := s.List.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Drain one full round: every flow must be served exactly once
	// (equal weights, equal packets: one round of fair service).
	served := make(map[flowq.FlowID]int, nFlows)
	for i := 0; i < nFlows; i++ {
		p, ok := s.NextPacket(0)
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		served[p.Flow]++
	}
	for f := 0; f < nFlows; f++ {
		if served[flowq.FlowID(f)] != 1 {
			t.Fatalf("flow %d served %d times in one round", f, served[flowq.FlowID(f)])
		}
	}
	if err := s.List.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestThirtyThousandFlowShaping(t *testing.T) {
	if testing.Short() {
		t.Skip("30K-flow run")
	}
	// 30K token buckets with distinct deadlines: the eligibility machinery
	// must hold up at scale too. Flows get staggered send times; draining
	// at increasing clock values releases exactly the eligible prefix.
	const nFlows = 30000
	s := sched.New(algos.RCSP(), nFlows, 100)
	var seq uint64
	for f := 0; f < nFlows; f++ {
		s.Flow(flowq.FlowID(f)).Priority = uint64(f)
		seq++
		s.OnArrival(0, flowq.Packet{
			Flow:   flowq.FlowID(f),
			Size:   1500,
			SendAt: clock.Time(f * 10),
			Seq:    seq,
		})
	}
	released := 0
	for now := clock.Time(0); released < nFlows; now += 50000 {
		for {
			p, ok := s.NextPacket(now)
			if !ok {
				break
			}
			head := clock.Time(uint64(p.Flow) * 10)
			if head > now {
				t.Fatalf("flow %d released at %v before its send time %v", p.Flow, now, head)
			}
			released++
		}
	}
	if released != nFlows {
		t.Fatalf("released %d, want %d", released, nFlows)
	}
}

func TestManyFlowsChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn run")
	}
	// 10K flows arriving and draining in waves, with fairness measured
	// per wave — exercises enqueue/retire churn on the sublist structure.
	const nFlows = 10000
	s := sched.New(algos.WFQ(), nFlows, 100)
	var seq uint64
	for wave := 0; wave < 3; wave++ {
		for f := 0; f < nFlows; f++ {
			for k := 0; k < 2; k++ {
				seq++
				s.OnArrival(0, flowq.Packet{Flow: flowq.FlowID(f), Size: 1500, Seq: seq})
			}
		}
		bytes := map[flowq.FlowID]uint64{}
		for i := 0; i < 2*nFlows; i++ {
			p, ok := s.NextPacket(0)
			if !ok {
				t.Fatalf("wave %d drained early at %d", wave, i)
			}
			bytes[p.Flow] += uint64(p.Size)
		}
		var shares []float64
		for _, b := range bytes {
			shares = append(shares, float64(b))
		}
		if j := stats.JainIndex(shares); j < 0.9999 {
			t.Fatalf("wave %d Jain = %v", wave, j)
		}
		if err := s.List.CheckInvariants(); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
	}
}
