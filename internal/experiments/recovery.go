package experiments

import (
	"fmt"
	"math/rand"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/shard"
	"pieo/internal/supervise"
)

// Recovery characterizes the self-healing supervision layer (DESIGN.md
// §12): MTTR under scheduled fault storms. A sharded engine on an
// injected clock is stormed with time-windowed induced panics
// (faultinject.Storm), and after the last window closes the circuit
// breakers must converge every shard back to fully closed — live
// traffic only, no forced recovery — within their own backoff horizon.
// Rows sweep the breaker's base backoff, showing MTTR and convergence
// time scale with the configured schedule, not with luck. Conservation
// holds exactly in every cell.
func Recovery() *Table {
	t := &Table{
		ID:    "recovery",
		Title: "Self-healing supervision: MTTR under fault storms",
		Columns: []string{
			"scenario", "config", "quarantines", "recoveries", "lost",
			"mean MTTR", "max MTTR", "converge ticks",
		},
	}
	for _, base := range []clock.Time{32, 128, 512} {
		t.Rows = append(t.Rows, recoveryStormRow(base))
	}
	t.Notes = []string{
		"storm rows: two scheduled panic windows on an injected clock; convergence is live-traffic-only (no Recover())",
		"converge ticks = clock ticks from the last storm window closing to all breakers closed; bound = horizon × attempts",
		"MTTR in supervision-clock ticks, from an episode's first trip to its breaker close (half-open probe budget exhausted)",
		"every cell conserves exactly: accepted = delivered + queued + declared lost",
	}
	return t
}

// recoveryStormRow storms one engine configuration and measures MTTR and
// convergence against the breaker's configured horizon.
func recoveryStormRow(base clock.Time) []string {
	const (
		capacity   = 4096
		shards     = 8
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
	}
}
