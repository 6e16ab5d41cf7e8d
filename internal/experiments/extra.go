package experiments

import (
	"fmt"
	"math/rand"

	"pieo/internal/algos"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/hwmodel"
	"pieo/internal/netsim"
	"pieo/internal/pipeline"
	"pieo/internal/sched"
)

// Pipeline quantifies the §6.2 pipelining discussion with the issue-rate
// simulator: the dual-port SRAM constraint caps the prototype at one
// operation per four cycles; scheduling operations whose sublists are
// disjoint recovers 2x; lifting the port constraint entirely (quad-port
// SRAM / ASIC register files) reaches one per cycle.
func Pipeline() *Table {
	const nOps = 20000
	c := sqrtShape(30000)
	clockMHz := hwmodel.PIEOClockMHz(c)

	independent := pipeline.IndependentStream(nOps, 64)
	rng := rand.New(rand.NewSource(3))
	mixed := make([]pipeline.Op, nOps)
	for i := range mixed {
		a := rng.Intn(c.Sublists)
		mixed[i] = pipeline.Op{Sublists: [2]int{a, rng.Intn(c.Sublists)}}
	}
	same := pipeline.SameSublistStream(nOps)

	var rows [][]string
	for _, run := range []struct {
		stream string
		ops    []pipeline.Op
		mode   pipeline.Mode
	}{
		{"any", independent, pipeline.NonPipelined},
		{"independent sublists", independent, pipeline.PortAware},
		{"random sublists (30K geometry)", mixed, pipeline.PortAware},
		{"same sublist (worst case)", same, pipeline.PortAware},
		{"any", independent, pipeline.FullyPipelined},
	} {
		r := pipeline.Simulate(run.ops, run.mode)
		rows = append(rows, []string{
			run.mode.String(),
			run.stream,
			fmt.Sprintf("%.3f", r.OpsPerCycle),
			fmt.Sprintf("%.1f", r.OpsPerCycle*clockMHz),
		})
	}
	return &Table{
		ID:      "pipeline",
		Title:   "Issue-rate of the 4-stage datapath under the dual-port SRAM constraint (§6.2)",
		Columns: []string{"issue policy", "op stream", "ops/cycle", "Mops/s @ 80 MHz"},
		Rows:    rows,
		Notes: []string{
			"memory stages (cycles 2 and 4) use both SRAM ports, so they can never overlap across operations",
			"careful scheduling of independent operations doubles the non-pipelined rate, as §6.2 anticipates",
		},
	}
}

// TriggerModels reproduces the §3.2.1 trade-off: the output-triggered
// model recomputes rank/predicate at dequeue and so adapts immediately
// when the control plane changes a flow's rate limit; the
// input-triggered model committed per-packet release times at arrival
// and keeps shaping the queued backlog at the stale rate.
func TriggerModels() *Table {
	const (
		before   = 2.0
		after    = 16.0
		change   = clock.Time(5_000_000)  // rate raised at 5 ms
		duration = clock.Time(10_000_000) // measured to 10 ms
		backlog  = 12000                  // deep enough to cover 16 Gbps for 5 ms
	)
	run := func(prog *sched.Program) (firstHalf, secondHalf float64) {
		s := sched.New(prog, 4, linkGbps)
		f := s.Flow(1)
		f.RateGbps = before
		f.Burst = 3000
		f.Tokens = f.Burst

		sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
		var h1, h2 uint64
		sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
			if now <= change {
				h1 += uint64(p.Size)
			} else {
				h2 += uint64(p.Size)
			}
		}
		for i := 0; i < backlog; i++ {
			sim.InjectOne(0, flowq.Packet{Flow: 1, Size: 1500, Seq: uint64(i)})
		}
		// Control-plane rate change mid-run: split the run at it.
		sim.Run(change)
		f.RateGbps = after
		sim.Run(duration)
		return float64(h1) * 8 / float64(change), float64(h2) * 8 / float64(duration-change)
	}

	outBefore, outAfter := run(algos.TokenBucket())
	inBefore, inAfter := run(algos.TokenBucketInput())
	return &Table{
		ID:      "trigger",
		Title:   "Shaping precision across trigger models: rate limit raised 2 -> 16 Gbps mid-run (§3.2.1)",
		Columns: []string{"model", "Gbps before change", "Gbps after change", "adapts"},
		Rows: [][]string{
			{"output-triggered", fmt.Sprintf("%.2f", outBefore), fmt.Sprintf("%.2f", outAfter), yesNo(outAfter > 12)},
			{"input-triggered", fmt.Sprintf("%.2f", inBefore), fmt.Sprintf("%.2f", inAfter), yesNo(inAfter > 12)},
		},
		Notes: []string{
			"output-triggered recomputes send times at dequeue and tracks the new limit immediately",
			"input-triggered committed release times at arrival; the queued backlog keeps the stale 2 Gbps pacing",
		},
	}
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no (stale per-packet plan)"
}

// Devices extends the §6.2 device discussion: the maximum scheduler each
// design fits and the modeled clock on the paper's Stratix V, a Stratix
// 10, and an ASIC target.
func Devices() *Table {
	var rows [][]string
	c30 := sqrtShape(30000)
	for _, d := range []hwmodel.Device{hwmodel.StratixV, hwmodel.Stratix10, hwmodel.ASIC} {
		pifoMax := hwmodel.MaxPIFOFit(d)
		pieoMax := hwmodel.MaxPIEOFit(d)
		f := hwmodel.PIEOClockMHzOn(d, c30)
		rows = append(rows, []string{
			d.Name,
			fmt.Sprintf("%d", pifoMax),
			fmt.Sprintf("%d", pieoMax),
			fmt.Sprintf("%.0fx", float64(pieoMax)/float64(pifoMax)),
			fmt.Sprintf("%.0f MHz", f),
			fmt.Sprintf("%.1f ns", hwmodel.NsPerOp(f, hwmodel.CyclesPerOp)),
		})
	}
	return &Table{
		ID:      "devices",
		Title:   "PIEO vs PIFO across target devices (§6.2 discussion)",
		Columns: []string{"device", "PIFO max", "PIEO max", "advantage", "PIEO clock @30K", "ns/op @30K"},
		Rows:    rows,
		Notes: []string{
			"PIFO stays logic-bound on every device; PIEO is SRAM-bound",
			"the ASIC clock is 8.1x the Stratix V model, capped at the paper's 1 GHz: a 1K instance reaches the cap (4 ns/op), the 30K columns do not (647 MHz)",
			"the Stratix V row is the >30x headline: PIFO is ALM-bound near 1K, PIEO SRAM-bound; the paper demonstrates 30K vs 1K",
		},
	}
}
