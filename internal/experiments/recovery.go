package experiments

import (
	"fmt"
	"math/rand"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/flowq"
	"pieo/internal/sched"
	"pieo/internal/shard"
	"pieo/internal/supervise"
)

// Recovery characterizes the self-healing supervision layer (DESIGN.md
// §12) along its two axes:
//
//   - MTTR under scheduled fault storms: a sharded engine on an injected
//     clock is stormed with time-windowed induced panics
//     (faultinject.Storm), and after the last window closes the
//     circuit breakers must converge every shard back to fully closed —
//     live traffic only, no forced recovery — within their own backoff
//     horizon. Rows sweep the breaker's base backoff, showing MTTR and
//     convergence time scale with the configured schedule, not with
//     luck. Conservation holds exactly in every cell.
//   - Graduated overload: the watermark controller steps the admission
//     policy (admit-all → tail-drop → push-out → shed) as offered load
//     sweeps 0.5x–8x capacity. Premium goodput (the C best-priority
//     flows) stays high under overload, and the hysteresis gap keeps the
//     level from flapping: ≥100 consecutive evaluations at the final
//     constant occupancy produce zero transitions.
func Recovery() *Table {
	t := &Table{
		ID:    "recovery",
		Title: "Self-healing supervision: MTTR under fault storms + graduated overload",
		Columns: []string{
			"scenario", "config", "quarantines", "recoveries", "lost",
			"mean MTTR", "max MTTR", "converge ticks",
			"premium goodput", "transitions", "sheds", "flap@const",
		},
	}
	for _, base := range []clock.Time{32, 128, 512} {
		t.Rows = append(t.Rows, recoveryStormRow(base))
	}
	for _, load := range []float64{0.5, 1, 2, 4, 8} {
		t.Rows = append(t.Rows, recoveryOverloadRow(load))
	}
	t.Notes = []string{
		"storm rows: two scheduled panic windows on an injected clock; convergence is live-traffic-only (no Recover())",
		"converge ticks = clock ticks from the last storm window closing to all breakers closed; bound = horizon × attempts",
		"MTTR in supervision-clock ticks, from an episode's first trip to its breaker close (half-open probe budget exhausted)",
		"overload rows: static-priority scheduler at C=64, controller on default watermarks scaled to capacity",
		"flap@const = level transitions across 100 consecutive evaluations at the run's final occupancy (0 = no flapping)",
		"every cell conserves exactly: accepted = delivered + queued + declared lost (storm) / arrived = delivered + drops (overload)",
	}
	return t
}

// recoveryStormRow storms one engine configuration and measures MTTR and
// convergence against the breaker's configured horizon.
func recoveryStormRow(base clock.Time) []string {
	const (
		capacity = 4096
		shards   = 8
		opsPerTick = 4 // driver ops between clock ticks: keeps shards busy
	)
	clk := &clock.Atomic{}
	e := shard.New(capacity, shards)
	e.SetClock(clk)
	cfg := supervise.BreakerConfig{
		BaseBackoff: base, MaxBackoff: 8 * base, ProbeBudget: 16, JitterPct: 25,
	}
	e.SetBreakerConfig(cfg)
	cfg = supervise.NewBreaker(0, cfg).Config() // normalize defaults (attempts cap etc.)
	storm := faultinject.NewStorm(clk, []faultinject.Window{
		{From: 100, To: 1100, Plan: faultinject.Plan{Seed: 11, PanicEvery: 53}},
		{From: 2000, To: 3000, Plan: faultinject.Plan{Seed: 29, PanicEvery: 101}},
	})
	e.SetFaultHook(storm.ShardHook())

	rng := rand.New(rand.NewSource(int64(base)))
	accepted, delivered := 0, 0
	nextID := uint32(1)
	driveOp := func() {
		switch rng.Intn(4) {
		case 0, 1:
			id := nextID
			nextID++
			ent := core.Entry{ID: id, Rank: uint64(rng.Intn(5000)), SendTime: clock.Time(rng.Intn(16))}
			if err := e.Enqueue(ent); err == nil {
				accepted++
			}
		case 2:
			if _, ok := e.Dequeue(clock.Time(rng.Intn(32))); ok {
				delivered++
			}
		case 3:
			id := uint32(rng.Intn(int(nextID))) + 1
			if _, ok := e.DequeueFlow(id); ok {
				delivered++
			}
		}
	}
	for clk.Now() < storm.End() {
		for i := 0; i < opsPerTick; i++ {
			driveOp()
		}
		clk.Advance(1)
	}

	// Convergence: live traffic + clock only. The bound is one full
	// backoff ladder of failed probes plus probation, far above what a
	// fault-free recovery needs — exceeding it means the breakers are not
	// converging and the experiment must fail loudly.
	horizon := supervise.NewBreaker(0, cfg).Horizon()
	bound := horizon * clock.Time(cfg.MaxRebuildAttempts+2)
	start := clk.Now()
	for {
		fs := e.FaultStats()
		if fs.DownShards == 0 && fs.HalfOpenShards == 0 {
			break
		}
		if clk.Now()-start > bound {
			panic(fmt.Sprintf("experiments: recovery did not converge within %d ticks (bound %d): %+v",
				clk.Now()-start, bound, fs))
		}
		for i := 0; i < opsPerTick; i++ {
			driveOp()
		}
		clk.Advance(1)
	}
	converge := clk.Now() - start

	fs := e.FaultStats()
	if got := uint64(delivered) + uint64(e.Len()) + fs.LostEntries; got != uint64(accepted) {
		panic(fmt.Sprintf("experiments: recovery conservation violated at base=%d: accepted %d != delivered %d + queued %d + lost %d",
			base, accepted, delivered, e.Len(), fs.LostEntries))
	}
	if err := e.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("experiments: recovery invariants at base=%d: %v", base, err))
	}
	meanMTTR := "-"
	if fs.Recoveries > 0 {
		meanMTTR = fmt.Sprintf("%.0f", float64(fs.MTTRTotal)/float64(fs.Recoveries))
	}
	return []string{
		"storm", fmt.Sprintf("base=%d max=%d", base, 8*base),
		fmt.Sprintf("%d", fs.Quarantines), fmt.Sprintf("%d", fs.Recoveries),
		fmt.Sprintf("%d", fs.LostEntries),
		meanMTTR, fmt.Sprintf("%d", fs.MTTRMax),
		fmt.Sprintf("%d", converge),
		"-", "-", "-", "-",
	}
}

// recoveryOverloadRow measures graduated overload control at one offered
// load, including the no-flapping probe.
func recoveryOverloadRow(load float64) []string {
	const (
		capacity = 64
		arrivals = 40000
	)
	prog := &sched.Program{
		Name:  "static-priority",
		Model: sched.OutputTriggered,
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			f.Rank = f.Priority
			f.SendTime = clock.Always
		},
	}
	flows := int(load * capacity)
	s := sched.NewOn(prog, backend.NewCoreList(capacity), 10)
	s.Overload = supervise.NewController(capacity, supervise.Watermarks{})
	for id := 1; id <= flows; id++ {
		s.Flow(flowq.FlowID(id)).Priority = uint64(id)
	}

	rng := rand.New(rand.NewSource(int64(flows)*37 + 5))
	now := clock.Time(0)
	var delivered, premium, premiumArrived uint64
	deliver := func(p flowq.Packet, ok bool) {
		if !ok {
			return
		}
		delivered++
		if uint64(p.Flow) <= capacity {
			premium++
		}
	}
	for i := 0; i < arrivals; i++ {
		now++
		id := flowq.FlowID(rng.Intn(flows) + 1)
		if uint64(id) <= capacity {
			premiumArrived++
		}
		s.OnArrival(now, flowq.Packet{Flow: id, Size: 1500, Arrival: now})
		if i%2 == 1 {
			now++
			deliver(s.NextPacket(now))
		}
	}
	// The no-flapping probe runs at the final (peak-load) occupancy,
	// BEFORE draining: ≥100 consecutive evaluations at constant load must
	// hold the level steady.
	settleLvl := s.Overload.Evaluate(s.List.Len())
	flapBase := s.Overload.Stats().Transitions
	for i := 0; i < 100; i++ {
		if got := s.Overload.Evaluate(s.List.Len()); got != settleLvl {
			break
		}
	}
	flaps := s.Overload.Stats().Transitions - flapBase
	// Snapshot controller stats at peak load: draining re-enqueues flows,
	// which re-evaluates the ladder at falling occupancy and would report
	// the post-drain (unloaded) level instead of the loaded one.
	cs := s.Overload.Stats()
	for {
		now++
		p, ok := s.NextPacket(now)
		if !ok {
			break
		}
		deliver(p, ok)
	}

	fs := s.FaultStats()
	if got := delivered + fs.DroppedPackets; got != arrivals {
		panic(fmt.Sprintf("experiments: recovery overload conservation violated at load %.1f: %d delivered + %d dropped != %d arrived (last fault %v)",
			load, delivered, fs.DroppedPackets, arrivals, s.LastFault()))
	}
	premiumPct := "n/a"
	if premiumArrived > 0 {
		// Premium vs aggregate delivery fraction: rank-aware push-out holds
		// the best-priority flows above the fair share as load grows.
		premiumPct = fmt.Sprintf("%.1f%% (all %.1f%%)",
			100*float64(premium)/float64(premiumArrived),
			100*float64(delivered)/float64(arrivals))
	}
	return []string{
		"overload", fmt.Sprintf("load=%.1fx lvl=%v", load, cs.Level),
		"-", "-", "-", "-", "-", "-",
		premiumPct,
		fmt.Sprintf("%d", cs.Transitions), fmt.Sprintf("%d", cs.Sheds),
		fmt.Sprintf("%d", flaps),
	}
}
