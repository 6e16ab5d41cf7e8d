package sched

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	_ "pieo/internal/refmodel" // registers the "ref" backend
)

func defaultProg() *Program { return &Program{Name: "default"} }

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"nil program", func() { New(nil, 16, 40) }},
		{"zero rate", func() { New(defaultProg(), 16, 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestFlowDefaults(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	f := s.Flow(3)
	if f.Weight != 1 || f.Quantum != 1500 {
		t.Fatalf("flow defaults = %+v", f)
	}
	if s.Flow(3) != f {
		t.Fatal("Flow(3) returned a new object")
	}
	if s.Flows() != 1 {
		t.Fatalf("Flows = %d, want 1", s.Flows())
	}
}

func TestSetWeightMaintainsSum(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	s.Flow(1)
	s.Flow(2)
	if s.SumWeights != 2 {
		t.Fatalf("SumWeights = %d, want 2", s.SumWeights)
	}
	s.SetWeight(1, 5)
	if s.SumWeights != 6 {
		t.Fatalf("SumWeights = %d, want 6", s.SumWeights)
	}
	s.SetWeight(1, 2)
	if s.SumWeights != 3 {
		t.Fatalf("SumWeights = %d, want 3", s.SumWeights)
	}
}

func TestSetWeightZeroPanics(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	defer func() {
		if recover() == nil {
			t.Fatal("SetWeight(0) did not panic")
		}
	}()
	s.SetWeight(1, 0)
}

func TestWireTime(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	if got := s.WireTime(1500); got != 300 {
		t.Fatalf("WireTime(1500@40G) = %v, want 300", got)
	}
	if got := s.WireTime(0); got != 1 {
		t.Fatalf("WireTime(0) = %v, want clamped 1", got)
	}
}

func TestDefaultProgramIsFlowFIFO(t *testing.T) {
	// The default program gives every flow rank 1 / always eligible:
	// flows are served in the order their queues went non-empty.
	s := New(defaultProg(), 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100, Seq: 1})
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Seq: 2})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100, Seq: 3})

	wantFlows := []flowq.FlowID{2, 1, 2}
	for i, w := range wantFlows {
		p, ok := s.NextPacket(0)
		if !ok || p.Flow != w {
			t.Fatalf("NextPacket #%d = flow %d ok=%v, want %d", i, p.Flow, ok, w)
		}
	}
	if _, ok := s.NextPacket(0); ok {
		t.Fatal("NextPacket succeeded on drained scheduler")
	}
}

func TestOutputTriggeredPreEnqueueRuns(t *testing.T) {
	calls := 0
	prog := &Program{
		Name: "counting",
		PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
			calls++
			f.Rank = uint64(f.ID)
			f.SendTime = clock.Always
		},
	}
	s := New(prog, 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 5, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 5, Size: 100}) // queue already non-empty: no new enqueue
	if calls != 1 {
		t.Fatalf("PreEnqueue calls = %d, want 1", calls)
	}
	s.NextPacket(0) // pops one, re-enqueues: PreEnqueue again
	if calls != 2 {
		t.Fatalf("PreEnqueue calls = %d, want 2", calls)
	}
}

func TestInputTriggeredUsesPacketAttrs(t *testing.T) {
	prog := &Program{
		Name:  "pkt-rank",
		Model: InputTriggered,
		PrePacket: func(s *Scheduler, now clock.Time, f *Flow, p *flowq.Packet) {
			p.Rank = uint64(p.Seq) // later packets get larger ranks
			p.SendAt = clock.Always
		},
	}
	s := New(prog, 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Seq: 10})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100, Seq: 5})
	// Flow 2's head has the smaller per-packet rank.
	p, ok := s.NextPacket(0)
	if !ok || p.Flow != 2 {
		t.Fatalf("NextPacket = flow %d, want 2", p.Flow)
	}
}

func TestInputTriggeredDefaultAttrs(t *testing.T) {
	prog := &Program{Name: "input-default", Model: InputTriggered}
	s := New(prog, 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, SendAt: 999}) // default PrePacket overwrites
	if p, ok := s.NextPacket(0); !ok || p.Flow != 1 {
		t.Fatalf("NextPacket = %+v ok=%v", p, ok)
	}
}

func TestEnqueueFlowSkipsBlockedAndEmpty(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	f := s.Flow(1)
	s.EnqueueFlow(0, f) // empty queue: no-op
	if s.List.Len() != 0 {
		t.Fatal("empty flow was enqueued")
	}
	f.Queue.Push(flowq.Packet{Flow: 1, Size: 100})
	f.Blocked = true
	s.EnqueueFlow(0, f)
	if s.List.Len() != 0 {
		t.Fatal("blocked flow was enqueued")
	}
	f.Blocked = false
	s.EnqueueFlow(0, f)
	s.EnqueueFlow(0, f) // idempotent: already in list
	if s.List.Len() != 1 {
		t.Fatalf("List.Len = %d, want 1", s.List.Len())
	}
}

func TestAlarmUpdatesAttributes(t *testing.T) {
	prog := &Program{
		Name: "prio",
		PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
			f.Rank = f.Priority
			f.SendTime = clock.Always
		},
	}
	s := New(prog, 16, 40)
	s.Flow(1).Priority = 10
	s.Flow(2).Priority = 5
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})

	// Boost flow 1 past flow 2 asynchronously.
	if !s.Alarm(0, 1, func(f *Flow) { f.Priority = 1 }) {
		t.Fatal("Alarm reported unknown flow")
	}
	p, ok := s.NextPacket(0)
	if !ok || p.Flow != 1 {
		t.Fatalf("NextPacket = flow %d, want boosted flow 1", p.Flow)
	}
}

func TestAlarmUnknownFlow(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	if s.Alarm(0, 99, func(f *Flow) {}) {
		t.Fatal("Alarm on unknown flow reported true")
	}
}

func TestNextWakeWallDomain(t *testing.T) {
	prog := &Program{
		Name: "shaped",
		PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
			f.Rank = 1
			f.SendTime = 500
		},
	}
	s := New(prog, 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	if _, ok := s.NextPacket(0); ok {
		t.Fatal("packet sent before send time")
	}
	at, ok := s.NextWake(0)
	if !ok || at != 500 {
		t.Fatalf("NextWake = %v,%v, want 500,true", at, ok)
	}
	if p, ok := s.NextPacket(500); !ok || p.Flow != 1 {
		t.Fatalf("NextPacket(500) = %+v ok=%v", p, ok)
	}
}

// A flow parked at clock.Never (blocked until an Alarm re-ranks it) is no
// wake on any backend, indexed or not: the simulator must stop at the
// arrival instead of arming an alarm at the end of time, "releasing" the
// flow there and wrapping the tx-done instant.
func TestNextWakeParkedFlow(t *testing.T) {
	for _, name := range []string{"core", "ref"} {
		t.Run(name, func(t *testing.T) {
			prog := &Program{
				Name: "parked",
				PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
					f.Rank = 1
					f.SendTime = clock.Never
				},
			}
			b, err := backend.New(name, 16)
			if err != nil {
				t.Fatal(err)
			}
			s := NewOn(prog, b, 40)
			sim := netsim.New(netsim.Link{RateGbps: 40}, s)
			sim.InjectOne(100, flowq.Packet{Flow: 1, Size: 100})
			if end := sim.Run(clock.Never); end != 100 {
				t.Fatalf("Run(Never) = %v, want the arrival instant 100", end)
			}
			if at, ok := s.NextWake(100); ok {
				t.Fatalf("NextWake = %v,true for an all-Never backlog", at)
			}
			if sim.Sent() != 0 || sim.Utilization() != 0 {
				t.Fatalf("sent=%d utilization=%g, want nothing transmitted", sim.Sent(), sim.Utilization())
			}
			if !s.List.Contains(1) || s.Backlog() != 1 {
				t.Fatalf("parked flow left the list (len %d, backlog %d)", s.List.Len(), s.Backlog())
			}
		})
	}
}

func TestNextWakeVirtualDomainUnknown(t *testing.T) {
	prog := &Program{
		Name:        "virtual",
		DequeueTime: func(s *Scheduler, now clock.Time) clock.Time { return s.V.Now() },
	}
	s := New(prog, 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	if _, ok := s.NextWake(0); ok {
		t.Fatal("virtual-domain scheduler offered a wall wake hint")
	}
}

func TestBacklog(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})
	if got := s.Backlog(); got != 3 {
		t.Fatalf("Backlog = %d, want 3", got)
	}
	s.NextPacket(0)
	if got := s.Backlog(); got != 2 {
		t.Fatalf("Backlog = %d, want 2", got)
	}
}

func TestTailDropAtQueueLimit(t *testing.T) {
	s := New(defaultProg(), 16, 40)
	f := s.Flow(1)
	f.Queue.Limit = 2
	for i := 0; i < 5; i++ {
		s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Seq: uint64(i)})
	}
	if s.Drops() != 3 {
		t.Fatalf("Drops = %d, want 3", s.Drops())
	}
	if got := f.Queue.Len(); got != 2 {
		t.Fatalf("queue len = %d, want 2", got)
	}
	// The two admitted packets still transmit in order.
	for want := uint64(0); want < 2; want++ {
		p, ok := s.NextPacket(0)
		if !ok || p.Seq != want {
			t.Fatalf("NextPacket = %+v ok=%v, want seq %d", p, ok, want)
		}
	}
}

func TestTriggerModelString(t *testing.T) {
	if OutputTriggered.String() != "output-triggered" || InputTriggered.String() != "input-triggered" {
		t.Fatal("TriggerModel.String wrong")
	}
	if got := TriggerModel(9).String(); got != "TriggerModel(9)" {
		t.Fatalf("String = %q", got)
	}
}

func TestEmptyBurstMovesToNextFlow(t *testing.T) {
	// A program that refuses to transmit flow 1 on its first visit must
	// not stall flow 2.
	visits := map[flowq.FlowID]int{}
	prog := &Program{
		Name: "skip-once",
		PostDequeue: func(s *Scheduler, now clock.Time, f *Flow) []flowq.Packet {
			visits[f.ID]++
			if f.ID == 1 && visits[1] == 1 {
				s.EnqueueFlow(now, f) // try again later
				return nil
			}
			return s.DefaultPostDequeue(now, f)
		},
	}
	s := New(prog, 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})
	p, ok := s.NextPacket(0)
	if !ok || p.Flow != 2 {
		t.Fatalf("NextPacket = flow %d ok=%v, want 2 (flow 1 deferred)", p.Flow, ok)
	}
	p, ok = s.NextPacket(0)
	if !ok || p.Flow != 1 {
		t.Fatalf("NextPacket = flow %d ok=%v, want 1 on revisit", p.Flow, ok)
	}
}
