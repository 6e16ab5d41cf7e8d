package netsim

import (
	"math"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/pktgen"
)

// fifoSched is the simplest possible scheduler: one global FIFO.
type fifoSched struct {
	q flowq.Queue
}

func (f *fifoSched) OnArrival(_ clock.Time, p flowq.Packet) { f.q.Push(p) }
func (f *fifoSched) NextPacket(clock.Time) (flowq.Packet, bool) {
	return f.q.Pop()
}

// A work-conserving FIFO has nothing to wake for and absorbs no faults.
func (f *fifoSched) NextWake(clock.Time) (clock.Time, bool) { return 0, false }
func (f *fifoSched) FaultStats() backend.FaultStats         { return backend.FaultStats{} }

// pacedSched releases its FIFO head only after the packet's SendAt time —
// a minimal non-work-conserving scheduler with a wake hint.
type pacedSched struct {
	q flowq.Queue
}

func (f *pacedSched) OnArrival(_ clock.Time, p flowq.Packet) { f.q.Push(p) }
func (f *pacedSched) NextPacket(now clock.Time) (flowq.Packet, bool) {
	head, ok := f.q.Head()
	if !ok || head.SendAt > now {
		return flowq.Packet{}, false
	}
	return f.q.Pop()
}
func (f *pacedSched) NextWake(now clock.Time) (clock.Time, bool) {
	head, ok := f.q.Head()
	if !ok {
		return 0, false
	}
	return head.SendAt, true
}
func (f *pacedSched) FaultStats() backend.FaultStats { return backend.FaultStats{} }

func TestTransmitTime(t *testing.T) {
	l := Link{RateGbps: 100}
	if got := l.TransmitTime(1500); got != 120 {
		t.Fatalf("TransmitTime(1500@100G) = %v, want 120", got)
	}
	l = Link{RateGbps: 40}
	if got := l.TransmitTime(1500); got != 300 {
		t.Fatalf("TransmitTime(1500@40G) = %v, want 300", got)
	}
	// Tiny packet on a fast link still takes at least a tick.
	l = Link{RateGbps: 1000}
	if got := l.TransmitTime(1); got != 1 {
		t.Fatalf("TransmitTime(1B@1T) = %v, want 1", got)
	}
}

func TestTransmitTimePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-rate link")
		}
	}()
	Link{}.TransmitTime(100)
}

func TestBackToBackTransmission(t *testing.T) {
	sched := &fifoSched{}
	sim := New(Link{RateGbps: 100}, sched)
	var done []clock.Time
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) { done = append(done, now) }

	// Three MTU packets arriving at t=0 on a 100G link leave at 120,
	// 240, 360 ns.
	for i := 0; i < 3; i++ {
		sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, Seq: uint64(i)})
	}
	sim.Run(10_000)
	want := []clock.Time{120, 240, 360}
	if len(done) != 3 {
		t.Fatalf("transmitted %d, want 3", len(done))
	}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d at %v, want %v", i, done[i], w)
		}
	}
	if sim.Sent() != 3 {
		t.Fatalf("Sent = %d, want 3", sim.Sent())
	}
}

func TestIdleThenArrival(t *testing.T) {
	sched := &fifoSched{}
	sim := New(Link{RateGbps: 100}, sched)
	var done []clock.Time
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) { done = append(done, now) }

	sim.InjectOne(1000, flowq.Packet{Flow: 1, Size: 1500})
	sim.Run(10_000)
	if len(done) != 1 || done[0] != 1120 {
		t.Fatalf("done = %v, want [1120]", done)
	}
}

func TestRunHonorsUntil(t *testing.T) {
	sched := &fifoSched{}
	sim := New(Link{RateGbps: 100}, sched)
	sim.InjectOne(500, flowq.Packet{Flow: 1, Size: 1500})
	sim.InjectOne(50_000, flowq.Packet{Flow: 1, Size: 1500})
	sim.Run(10_000)
	if sim.Sent() != 1 {
		t.Fatalf("Sent = %d, want 1 (second arrival beyond horizon)", sim.Sent())
	}
	if sim.Now() > 10_000 {
		t.Fatalf("Now = %v, beyond until", sim.Now())
	}
}

func TestWakeHintPacing(t *testing.T) {
	// A packet arrives at t=0 but may only be sent at t=5000; the
	// simulator must wake exactly then rather than dropping it.
	sched := &pacedSched{}
	sim := New(Link{RateGbps: 100}, sched)
	var done []clock.Time
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) { done = append(done, now) }

	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, SendAt: 5000})
	sim.Run(100_000)
	if len(done) != 1 || done[0] != 5120 {
		t.Fatalf("done = %v, want [5120] (wake at 5000 + 120 wire time)", done)
	}
}

func TestUtilization(t *testing.T) {
	sched := &fifoSched{}
	sim := New(Link{RateGbps: 100}, sched)
	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500})
	// One packet: 120 ns busy; last event at 120 → utilization 1.0.
	sim.Run(1_000)
	if u := sim.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("Utilization = %v, want 1.0", u)
	}
}

// Run may stop with a packet on the wire. Its wire time used to be
// charged in full when it started, so utilization read above 1 (1.5 at
// the first cut below); it counts only up to the current instant.
func TestUtilizationMidPacket(t *testing.T) {
	sim := New(Link{RateGbps: 100}, &fifoSched{})
	// 120 ns each. The second starts at 120 and is still on the wire when
	// the arrival at 160 is the last event inside the horizon.
	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500})
	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500})
	sim.InjectOne(160, flowq.Packet{Flow: 1, Size: 1500})
	// Then a gap: the link idles from 360 until an arrival at 720.
	sim.InjectOne(720, flowq.Packet{Flow: 1, Size: 1500})
	for _, cut := range []struct {
		until clock.Time
		now   clock.Time
		want  float64
	}{
		{100, 0, 0},              // nothing done, the clock has not moved
		{200, 160, 1},            // mid-packet: busy for all of [0, 160]
		{300, 240, 1},            // on a tx-done
		{700, 360, 1},            // three back to back
		{800, 720, 0.5},          // idle 360..720, the fourth just started
		{1_000, 840, 480. / 840}, // drained
	} {
		sim.Run(cut.until)
		u := sim.Utilization()
		if sim.Now() != cut.now || math.Abs(u-cut.want) > 1e-12 || u < 0 || u > 1 {
			t.Fatalf("Run(%v): now %v, utilization %v; want now %v, utilization %v", cut.until, sim.Now(), u, cut.now, cut.want)
		}
	}
}

func TestInjectMergedStream(t *testing.T) {
	gen := &pktgen.CBR{Flow: 1, Size: pktgen.FixedSize(1500), Gap: 300, Count: 10}
	arrivals := pktgen.Merge(gen)
	sched := &fifoSched{}
	sim := New(Link{RateGbps: 40}, sched)
	sim.Inject(arrivals)
	sim.Run(1_000_000)
	if sim.Sent() != 10 {
		t.Fatalf("Sent = %d, want 10", sim.Sent())
	}
	// CBR at exactly line rate (300 ns per MTU at 40G): always busy.
	if u := sim.Utilization(); math.Abs(u-1.0) > 0.01 {
		t.Fatalf("Utilization = %v, want ~1.0", u)
	}
}

func TestEarlierWakeHintOverridesLater(t *testing.T) {
	// Two paced packets: the later one arrives first and arms a far
	// wake; when the earlier one arrives, the simulator must re-arm for
	// the nearer instant instead of sleeping past it.
	sched := &pacedSched{}
	sim := New(Link{RateGbps: 100}, sched)
	var done []clock.Time
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) { done = append(done, now) }

	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, SendAt: 50_000, Seq: 1})
	sim.InjectOne(100, flowq.Packet{Flow: 1, Size: 1500, SendAt: 50_000, Seq: 2})
	sim.Run(200_000)
	if len(done) != 2 {
		t.Fatalf("transmitted %d, want 2", len(done))
	}
	if done[0] != 50_120 {
		t.Fatalf("first completion at %v, want 50120", done[0])
	}
}

func TestWakeAfterIdleGap(t *testing.T) {
	// A paced packet whose SendAt lies beyond every queued event: the
	// wake event itself must keep the simulation alive.
	sched := &pacedSched{}
	sim := New(Link{RateGbps: 100}, sched)
	sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, SendAt: 90_000})
	end := sim.Run(1_000_000)
	if sim.Sent() != 1 {
		t.Fatalf("Sent = %d, want 1", sim.Sent())
	}
	if end < 90_000 {
		t.Fatalf("simulation ended at %v, before the wake", end)
	}
}

func TestNewPanicsOnNilScheduler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(Link{RateGbps: 1}, nil)
}
