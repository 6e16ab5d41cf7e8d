package faultinject_test

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/faultinject"
	"pieo/internal/flowq"
	"pieo/internal/sched"
)

// TestSchedulerUnderChaos drives a scheduler over a fault-injecting
// view of a core list: injected enqueue errors and capacity squeezes hit
// the wrapper. The scheduler must never panic, must count every fault it
// absorbs, and must conserve packets exactly — every arrival is
// eventually transmitted or appears in DroppedPackets. The plan carries
// no panic schedule: a panic unwinds the scheduler itself, a bug to
// surface, not a fault to absorb.
func TestSchedulerUnderChaos(t *testing.T) {
	wrapInj := faultinject.NewInjector(faultinject.Plan{Seed: 3, ErrorEvery: 41, SqueezeEvery: 59, SqueezeLen: 2})
	b := faultinject.Wrap(backend.NewCoreList(1024), wrapInj)

	prog := &sched.Program{Name: "chaos-fifo"}
	s := sched.NewOn(prog, b, 10)
	s.Admission = backend.AdmitPushOut

	const flows = 64
	rng := lcg(21)
	var arrived, transmitted uint64
	now := clock.Time(0)
	for i := 0; i < 30000; i++ {
		now++
		switch rng.next() % 3 {
		case 0, 1:
			id := flowq.FlowID(rng.next()%flows + 1)
			s.OnArrival(now, flowq.Packet{Flow: id, Size: 64, Arrival: now})
			arrived++
		case 2:
			if _, ok := s.NextPacket(now); ok {
				transmitted++
			}
		}
	}

	// Storm over: disarm, then drain.
	wrapInj.Disarm()
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	for {
		now++
		if _, ok := s.NextPacket(now); !ok {
			break
		}
		transmitted++
	}

	if got := s.Backlog(); got != 0 {
		t.Fatalf("backlog %d after full drain (last fault: %v)", got, s.LastFault())
	}
	fs := s.FaultStats()
	if transmitted+fs.DroppedPackets != arrived {
		t.Fatalf("conservation violated: %d arrived, %d transmitted + %d declared dropped",
			arrived, transmitted, fs.DroppedPackets)
	}
	if fs.EnqueueFailures == 0 {
		t.Fatalf("injected enqueue errors never reached the scheduler: %+v (injector %+v)", fs, wrapInj.Stats())
	}
	if fs.AdmissionRejects+fs.AdmissionEvictions == 0 {
		t.Fatalf("capacity squeezes never exercised admission: %+v (injector %+v)", fs, wrapInj.Stats())
	}
	t.Logf("chaos sched: arrived=%d transmitted=%d faults=%+v", arrived, transmitted, fs)
}
