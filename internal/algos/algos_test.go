package algos

import (
	"errors"
	"math"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/sched"
	"pieo/internal/stats"
)

const linkGbps = 40

// runBacklogged drives nFlows always-backlogged flows of pktSize bytes
// through prog for the given duration and returns bytes transmitted per
// flow. configure (optional) edits control-plane state before traffic.
func runBacklogged(t *testing.T, prog *sched.Program, nFlows int, pktSize uint32, duration clock.Time, configure func(*sched.Scheduler)) map[flowq.FlowID]uint64 {
	t.Helper()
	s := sched.New(prog, nFlows+1, linkGbps)
	for i := 0; i < nFlows; i++ {
		s.Flow(flowq.FlowID(i))
	}
	if configure != nil {
		configure(s)
	}
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	bytes := make(map[flowq.FlowID]uint64)
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		// Closed-loop backlog: replace every transmitted packet so queues
		// never drain (the paper's §6.3 packet-generator workload).
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for i := 0; i < nFlows; i++ {
		for k := 0; k < 4; k++ { // a small initial backlog per flow
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: flowq.FlowID(i), Size: pktSize, Seq: seq})
		}
	}
	sim.Run(duration)
	return bytes
}

func shareRatio(bytes map[flowq.FlowID]uint64, a, b flowq.FlowID) float64 {
	return float64(bytes[a]) / float64(bytes[b])
}

func TestDRREqualQuanta(t *testing.T) {
	bytes := runBacklogged(t, DRR(), 4, 1500, 2_000_000, nil)
	var shares []float64
	for i := 0; i < 4; i++ {
		shares = append(shares, float64(bytes[flowq.FlowID(i)]))
	}
	if j := stats.JainIndex(shares); j < 0.999 {
		t.Fatalf("DRR equal quanta Jain index = %v, want ~1 (%v)", j, bytes)
	}
}

func TestDRRQuantumRatio(t *testing.T) {
	bytes := runBacklogged(t, DRR(), 2, 1500, 4_000_000, func(s *sched.Scheduler) {
		s.Flow(0).Quantum = 3000
		s.Flow(1).Quantum = 1500
	})
	if r := shareRatio(bytes, 0, 1); math.Abs(r-2) > 0.1 {
		t.Fatalf("DRR 2:1 quanta share ratio = %v, want ~2 (%v)", r, bytes)
	}
}

func TestDRRQuantumSmallerThanPacket(t *testing.T) {
	// Deficit must accumulate across rounds when the quantum is smaller
	// than the packet size (classic DRR edge case).
	bytes := runBacklogged(t, DRR(), 2, 1500, 2_000_000, func(s *sched.Scheduler) {
		s.Flow(0).Quantum = 400 // needs 4 visits per packet
		s.Flow(1).Quantum = 400
	})
	if bytes[0] == 0 || bytes[1] == 0 {
		t.Fatalf("flows starved with sub-packet quantum: %v", bytes)
	}
	if r := shareRatio(bytes, 0, 1); math.Abs(r-1) > 0.1 {
		t.Fatalf("share ratio = %v, want ~1 (%v)", r, bytes)
	}
}

func TestWFQWeightedShares(t *testing.T) {
	bytes := runBacklogged(t, WFQ(), 3, 1500, 4_000_000, func(s *sched.Scheduler) {
		s.SetWeight(0, 4)
		s.SetWeight(1, 2)
		s.SetWeight(2, 1)
	})
	if r := shareRatio(bytes, 0, 1); math.Abs(r-2) > 0.15 {
		t.Fatalf("WFQ w4:w2 ratio = %v, want ~2 (%v)", r, bytes)
	}
	if r := shareRatio(bytes, 1, 2); math.Abs(r-2) > 0.15 {
		t.Fatalf("WFQ w2:w1 ratio = %v, want ~2 (%v)", r, bytes)
	}
}

func TestWF2QEqualShares(t *testing.T) {
	bytes := runBacklogged(t, WF2Q(), 10, 1500, 4_000_000, nil)
	var shares []float64
	for i := 0; i < 10; i++ {
		shares = append(shares, float64(bytes[flowq.FlowID(i)]))
	}
	if j := stats.JainIndex(shares); j < 0.999 {
		t.Fatalf("WF2Q+ equal weights Jain index = %v (%v)", j, bytes)
	}
}

func TestWF2QWeightedShares(t *testing.T) {
	bytes := runBacklogged(t, WF2Q(), 2, 1500, 4_000_000, func(s *sched.Scheduler) {
		s.SetWeight(0, 3)
		s.SetWeight(1, 1)
	})
	if r := shareRatio(bytes, 0, 1); math.Abs(r-3) > 0.2 {
		t.Fatalf("WF2Q+ w3:w1 ratio = %v, want ~3 (%v)", r, bytes)
	}
}

func TestWF2QByteFairnessMixedSizes(t *testing.T) {
	// Fairness must hold in BYTES when flows use different packet sizes:
	// a 1500B-packet flow and a 300B-packet flow with equal weights get
	// equal byte shares (the small-packet flow is served 5x as often).
	s := sched.New(WF2Q(), 4, linkGbps)
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	bytes := map[flowq.FlowID]uint64{}
	sizes := map[flowq.FlowID]uint32{1: 1500, 2: 300}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for id, size := range sizes {
		for k := 0; k < 8; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: id, Size: size, Seq: seq})
		}
	}
	sim.Run(4_000_000)
	r := float64(bytes[1]) / float64(bytes[2])
	if math.Abs(r-1) > 0.05 {
		t.Fatalf("byte share ratio = %v, want ~1 (%v)", r, bytes)
	}
}

func TestWF2QWorkConserving(t *testing.T) {
	// Work-conserving: a single backlogged flow gets the whole link.
	s := sched.New(WF2Q(), 4, linkGbps)
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	for i := 0; i < 100; i++ {
		sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, Seq: uint64(i)})
	}
	sim.Run(100_000_000)
	if sim.Sent() != 100 {
		t.Fatalf("Sent = %d, want 100", sim.Sent())
	}
	if u := sim.Utilization(); u < 0.999 {
		t.Fatalf("Utilization = %v, want 1.0 (work conserving)", u)
	}
}

func TestWF2QIdleThenBusy(t *testing.T) {
	// Regression: after a flow drains and the link idles, its virtual
	// finish time is far ahead of V. When it becomes backlogged again,
	// its start ( = stale finish) exceeds V and nothing is eligible —
	// the Fig 2(a) idle-link rule must jump V to the minimum start or
	// the scheduler deadlocks.
	s := sched.New(WF2Q(), 4, linkGbps)
	var seq uint64
	for i := 0; i < 5; i++ {
		seq++
		s.OnArrival(0, flowq.Packet{Flow: 1, Size: 1500, Seq: seq})
	}
	for i := 0; i < 5; i++ {
		if _, ok := s.NextPacket(0); !ok {
			t.Fatalf("initial drain stalled at %d", i)
		}
	}
	// Idle gap; the flow returns.
	seq++
	s.OnArrival(1_000_000, flowq.Packet{Flow: 1, Size: 1500, Seq: seq})
	p, ok := s.NextPacket(1_000_000)
	if !ok || p.Flow != 1 {
		t.Fatalf("post-idle NextPacket = %+v ok=%v; virtual clock did not jump", p, ok)
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	// One backlogged flow limited to 10 Gbps on a 40 Gbps link: the
	// measured rate must match the configured limit, and the link must
	// go idle (non-work-conserving).
	const limit = 10.0
	duration := clock.Time(10_000_000) // 10 ms
	s := sched.New(TokenBucket(), 4, linkGbps)
	f := s.Flow(1)
	f.RateGbps = limit
	f.Burst = 1500

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	meter := stats.NewRateMeter(0)
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		meter.Record(now, p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: 1, Size: 1500, Seq: seq})
	}
	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, Seq: 0})
	sim.Run(duration)
	meter.CloseAt(duration)

	if got := meter.Gbps(); math.Abs(got-limit) > 0.3 {
		t.Fatalf("token bucket rate = %.2f Gbps, want ~%.0f", got, limit)
	}
	if u := sim.Utilization(); u > 0.35 {
		t.Fatalf("Utilization = %v; a 10G-limited flow on a 40G link must leave it mostly idle", u)
	}
}

func TestTokenBucketBurstAllowsBackToBack(t *testing.T) {
	// A deep bucket lets an idle flow send a burst at line rate before
	// settling to the token rate.
	s := sched.New(TokenBucket(), 4, linkGbps)
	f := s.Flow(1)
	f.RateGbps = 1
	f.Burst = 6000 // four MTU packets
	f.Tokens = f.Burst

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	var done []clock.Time
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) { done = append(done, now) }
	for i := 0; i < 4; i++ {
		sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, Seq: uint64(i)})
	}
	sim.Run(100_000_000)
	if len(done) != 4 {
		t.Fatalf("transmitted %d, want 4", len(done))
	}
	// All four fit the initial bucket: back-to-back at wire speed
	// (300 ns each at 40G).
	if done[3] != 1200 {
		t.Fatalf("burst completed at %v, want 1200 (line-rate back-to-back)", done[3])
	}
}

func TestRCSPPriorityAmongEligible(t *testing.T) {
	s := sched.New(RCSP(), 4, linkGbps)
	s.Flow(1).Priority = 2
	s.Flow(2).Priority = 1

	// Flow 1's packet is eligible immediately; flow 2's only at t=1000.
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, SendAt: 0})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100, SendAt: 1000})

	p, ok := s.NextPacket(0)
	if !ok || p.Flow != 1 {
		t.Fatalf("NextPacket(0) = flow %d, want 1 (only eligible)", p.Flow)
	}
	s.OnArrival(500, flowq.Packet{Flow: 1, Size: 100, SendAt: 500})
	// At t=1000 both are eligible: higher priority (flow 2) wins.
	p, ok = s.NextPacket(1000)
	if !ok || p.Flow != 2 {
		t.Fatalf("NextPacket(1000) = flow %d, want 2 (higher priority)", p.Flow)
	}
}

func TestStrictPriorityOrdering(t *testing.T) {
	s := sched.New(StrictPriority(), 8, linkGbps)
	for id, prio := range map[flowq.FlowID]uint64{1: 3, 2: 1, 3: 2} {
		s.Flow(id).Priority = prio
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
	}
	want := []flowq.FlowID{2, 3, 1}
	for i, w := range want {
		p, ok := s.NextPacket(0)
		if !ok || p.Flow != w {
			t.Fatalf("NextPacket #%d = flow %d, want %d", i, p.Flow, w)
		}
	}
}

func TestAgeStarvedFlows(t *testing.T) {
	s := sched.New(StrictPriority(), 8, linkGbps)
	high := s.Flow(1)
	high.Priority = 1
	low := s.Flow(2)
	low.Priority = 5

	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})

	// Flow 1 keeps winning while flow 2 starves.
	p, _ := s.NextPacket(10)
	if p.Flow != 1 {
		t.Fatalf("expected flow 1 first, got %d", p.Flow)
	}
	// Aging alarm: flow 2 has waited 1000 ticks, threshold 500. Flow 1
	// was just served, so sweeping both flows only boosts flow 2; boost
	// repeatedly until it outranks flow 1.
	ids := []flowq.FlowID{1, 2}
	high.LastScheduled = 999
	for i := 0; i < 5; i++ {
		AgeStarvedFlows(s, clock.Time(1000+uint64(i)), 500, 0, ids)
		low.LastScheduled = 0 // keep it "starving" for the test
	}
	if low.Priority != 0 {
		t.Fatalf("starved priority = %d, want boosted to 0", low.Priority)
	}
	p, _ = s.NextPacket(2000)
	if p.Flow != 2 {
		t.Fatalf("after aging, NextPacket = flow %d, want 2", p.Flow)
	}
}

func TestAgeStarvedSkipsRecentlyServed(t *testing.T) {
	s := sched.New(StrictPriority(), 8, linkGbps)
	f := s.Flow(1)
	f.Priority = 5
	f.LastScheduled = 900
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	if n := AgeStarvedFlows(s, 1000, 500, 0, []flowq.FlowID{1}); n != 0 {
		t.Fatalf("boosted %d flows, want 0 (recently served)", n)
	}
	if f.Priority != 5 {
		t.Fatalf("priority changed to %d", f.Priority)
	}
}

func TestPauseResume(t *testing.T) {
	s := sched.New(StrictPriority(), 8, linkGbps)
	s.Flow(1).Priority = 1
	s.Flow(2).Priority = 2
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})

	Pause(s, 0, 1)
	p, ok := s.NextPacket(0)
	if !ok || p.Flow != 2 {
		t.Fatalf("NextPacket = flow %d, want 2 (flow 1 paused)", p.Flow)
	}
	if _, ok := s.NextPacket(0); ok {
		t.Fatal("paused flow was scheduled")
	}
	Resume(s, 10, 1)
	p, ok = s.NextPacket(10)
	if !ok || p.Flow != 1 {
		t.Fatalf("NextPacket after resume = flow %d ok=%v, want 1", p.Flow, ok)
	}
}

func TestEDFDeadlineOrder(t *testing.T) {
	s := sched.New(EDF(), 8, linkGbps)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Deadline: 3000})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100, Deadline: 1000})
	s.OnArrival(0, flowq.Packet{Flow: 3, Size: 100, Deadline: 2000})
	want := []flowq.FlowID{2, 3, 1}
	for i, w := range want {
		p, ok := s.NextPacket(0)
		if !ok || p.Flow != w {
			t.Fatalf("NextPacket #%d = flow %d, want %d", i, p.Flow, w)
		}
	}
}

func TestLSTFSlackOrder(t *testing.T) {
	s := sched.New(LSTF(), 8, linkGbps)
	// Same deadline, different sizes: the bigger packet has less slack.
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Deadline: 10_000})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 1500, Deadline: 10_000})
	p, ok := s.NextPacket(0)
	if !ok || p.Flow != 2 {
		t.Fatalf("NextPacket = flow %d, want 2 (least slack)", p.Flow)
	}
}

func TestSJFSmallestJobFirst(t *testing.T) {
	s := sched.New(SJF(), 8, linkGbps)
	// Flow 1: 3 packets queued before it enters the list? Arrival order:
	// first packet of each flow triggers enqueue with current bytes.
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 1500})
	s.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})
	// Flow 2 has the smaller job.
	p, ok := s.NextPacket(0)
	if !ok || p.Flow != 2 {
		t.Fatalf("NextPacket = flow %d, want 2 (shortest job)", p.Flow)
	}
}

func TestSRTFTracksRemaining(t *testing.T) {
	s := sched.New(SRTF(), 8, linkGbps)
	// Flow 1 arrives with a big job; flow 2 with a medium one. As flow 2
	// drains its rank shrinks, so it keeps winning.
	for i := 0; i < 4; i++ {
		s.OnArrival(0, flowq.Packet{Flow: 1, Size: 1500, Seq: uint64(i)})
	}
	for i := 0; i < 3; i++ {
		s.OnArrival(0, flowq.Packet{Flow: 2, Size: 1000, Seq: uint64(10 + i)})
	}
	for i := 0; i < 3; i++ {
		p, ok := s.NextPacket(0)
		if !ok || p.Flow != 2 {
			t.Fatalf("drain #%d = flow %d, want 2 until it finishes", i, p.Flow)
		}
	}
	p, _ := s.NextPacket(0)
	if p.Flow != 1 {
		t.Fatalf("after flow 2 done, got flow %d, want 1", p.Flow)
	}
}

func TestFIFOFlowOrder(t *testing.T) {
	s := sched.New(FIFO(), 8, linkGbps)
	s.OnArrival(0, flowq.Packet{Flow: 3, Size: 100})
	s.OnArrival(1, flowq.Packet{Flow: 1, Size: 100})
	p, _ := s.NextPacket(1)
	if p.Flow != 3 {
		t.Fatalf("FIFO served flow %d first, want 3", p.Flow)
	}
}

func TestPacerReleaseTimes(t *testing.T) {
	s := sched.New(Pacer(), 8, linkGbps)
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	var done []clock.Time
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) { done = append(done, now) }
	// Three packets paced 1 us apart, all arriving at t=0.
	for i := 0; i < 3; i++ {
		sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, SendAt: clock.Time(1000 * (i + 1)), Seq: uint64(i)})
	}
	sim.Run(100_000)
	want := []clock.Time{1300, 2300, 3300} // SendAt + 300 ns wire time
	if len(done) != 3 {
		t.Fatalf("transmitted %d, want 3", len(done))
	}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("packet %d done at %v, want %v", i, done[i], w)
		}
	}
}

// A token-bucket flow whose rate cannot cover its deficit in any
// representable time — never configured (deficit/0 = +Inf), so small the
// quotient overflows, or negative — parks at clock.Never: it is not
// released, arms no wake (the simulator must not run the clock to the end
// of time) and stays resident. Converting the unbounded float directly
// gave rank = send_time = 2^63 on amd64 with a wake armed there, and an
// unshaped flow (now + MaxUint64 = now - 1) where conversion saturates.
func TestTokenBucketUnreachableSendTimeParks(t *testing.T) {
	progs := map[string]func() *sched.Program{
		"output-triggered": TokenBucket,
		"input-triggered":  TokenBucketInput,
	}
	rates := map[string]float64{
		"unset":    0,
		"overflow": 1e-300,
		"negative": -1,
	}
	for pname, prog := range progs {
		for rname, rate := range rates {
			t.Run(pname+"/"+rname, func(t *testing.T) {
				s := sched.New(prog(), 4, linkGbps)
				f := s.Flow(1)
				f.RateGbps = rate
				f.Burst = 1500 // bucket starts empty: the first packet has a deficit
				sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
				sim.InjectOne(100, flowq.Packet{Flow: 1, Size: 1500})
				if end := sim.Run(clock.Never); end != 100 {
					t.Fatalf("Run(Never) = %v, want the arrival instant 100", end)
				}
				if at, ok := s.NextWake(100); ok {
					t.Fatalf("NextWake = %v,true for a flow that can never send", at)
				}
				if st, ok := s.List.MinSendTime(); !ok || st != clock.Never {
					t.Fatalf("MinSendTime = %v,%v, want the flow parked at never", st, ok)
				}
				if sim.Sent() != 0 || s.Backlog() != 1 {
					t.Fatalf("sent=%d backlog=%d, want the packet held", sim.Sent(), s.Backlog())
				}
			})
		}
	}
}

// An alarm that changes nothing — the §4.4 path AgeStarvedFlows,
// Pause/Resume and SJF take — re-ranks a flow with no transmission in
// between, so it must not charge the flow again. Flow 0 gets a no-op
// Alarm before every decision; the two flows must still split evenly.
func TestNoopAlarmKeepsShare(t *testing.T) {
	progs := map[string]func() *sched.Program{"wfq": WFQ, "wf2q+": WF2Q, "token-bucket": TokenBucket}
	for name, prog := range progs {
		t.Run(name, func(t *testing.T) {
			s := sched.New(prog(), 4, linkGbps)
			for id := flowq.FlowID(0); id < 2; id++ {
				f := s.Flow(id)
				f.RateGbps, f.Burst = 10, 3000 // 20 of 40 Gbps: the shaper idles the link
				for k := 0; k < 4; k++ {
					s.OnArrival(0, flowq.Packet{Flow: id, Size: 1500})
				}
			}
			var bytes [2]uint64
			for now := clock.Time(0); now < 1_000_000; {
				s.Alarm(now, 0, func(*sched.Flow) {})
				p, ok := s.NextPacket(now)
				if !ok {
					at, ok := s.NextWake(now)
					if !ok {
						t.Fatalf("idle at %v with backlog %d and no wake", now, s.Backlog())
					}
					now = at
					continue
				}
				bytes[p.Flow] += uint64(p.Size)
				now += s.WireTime(p.Size)
				s.OnArrival(now, p) // closed loop: both flows stay backlogged
			}
			if r := float64(bytes[0]) / float64(bytes[1]); math.Abs(r-1) > 0.01 {
				t.Fatalf("bytes %v: the alarmed flow's share is %.3f of its peer's, want 1", bytes, r)
			}
		})
	}
}

// A phantom extraction — a listed flow whose queue is empty — is one
// counted fault on every program, never a panic, a silent drop or a
// transmission.
func TestPhantomExtractionIsCounted(t *testing.T) {
	progs := []*sched.Program{
		DRR(), WFQ(), WF2Q(), TokenBucket(), RCSP(), StrictPriority(), SJF(), SRTF(), EDF(), LSTF(),
		FIFO(), Pacer(), SFQ(4), TDMA(2, 1000), TokenBucketInput(),
	}
	for _, prog := range progs {
		s := sched.New(prog, 4, linkGbps)
		s.Flow(1)
		if err := s.List.Enqueue(core.Entry{ID: 1, Rank: 1}); err != nil {
			t.Fatalf("%s: enqueue: %v", prog.Name, err)
		}
		if p, ok := s.NextPacket(0); ok {
			t.Errorf("%s: phantom extraction transmitted %+v", prog.Name, p)
		}
		if fs := s.FaultStats(); fs != (backend.FaultStats{UnknownFlows: 1}) {
			t.Errorf("%s: faults %+v, want one UnknownFlows", prog.Name, fs)
		}
		if !errors.Is(s.LastFault(), core.ErrUnknownFlow) {
			t.Errorf("%s: LastFault = %v, want core.ErrUnknownFlow", prog.Name, s.LastFault())
		}
	}
}
