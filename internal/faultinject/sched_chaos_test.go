package faultinject_test

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/faultinject"
	"pieo/internal/flowq"
	"pieo/internal/sched"
	"pieo/internal/shard"
)

// TestSchedulerUnderChaos drives a scheduler over a fault-injecting
// view of the sharded engine: injected enqueue errors and
// capacity squeezes hit the wrapper while induced panics hit the shard
// critical sections underneath. The scheduler must never panic, must
// count every fault it absorbs, and must conserve packets exactly —
// every arrival is eventually transmitted or appears in DroppedPackets.
func TestSchedulerUnderChaos(t *testing.T) {
	// Two injectors: the wrapper one must not carry a panic schedule
	// (wrapper panics would unwind the scheduler itself: a panic is a bug
	// to surface, not a fault to absorb); the hook one panics
	// inside shard-protected sections where quarantine catches them.
	wrapInj := faultinject.NewInjector(faultinject.Plan{Seed: 3, ErrorEvery: 41, SqueezeEvery: 59, SqueezeLen: 2})
	hookInj := faultinject.NewInjector(faultinject.Plan{Seed: 17, PanicEvery: 149})

	inner := shard.New(1024, 4)
	inner.SetFaultHook(hookInj.ShardHook())
	b := faultinject.Wrap(inner, wrapInj)

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

	// Storm over: disarm, force shard recovery, then run the
	// control-plane repair sweep — a flow whose list entry was declared
	// lost by an abandoned rebuild is stalled until something reinserts
	// it, and EnqueueFlow is idempotent for flows already present.
	wrapInj.Disarm()
	hookInj.Disarm()
	recoverAll(t, inner)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	for id := flowq.FlowID(1); id <= flows; id++ {
		s.EnqueueFlow(now, s.Flow(id))
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
	if inner.FaultStats().Quarantines == 0 {
		t.Fatalf("shard panic schedule never fired: %+v", hookInj.Stats())
	}
	t.Logf("chaos sched: arrived=%d transmitted=%d faults=%+v shard=%+v",
		arrived, transmitted, fs, inner.FaultStats())
}
