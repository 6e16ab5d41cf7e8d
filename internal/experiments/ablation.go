package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"pieo/internal/algos"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/hwmodel"
	"pieo/internal/policy"
	"pieo/internal/sched"
)

// Ablation studies the design choices DESIGN.md calls out:
//
//  1. sublist geometry — the √N sublist size minimizes logic (the §5
//     trade-off between pointer-array width and sublist width),
//  2. pipelining — §6.2's discussion of why dual-port SRAM caps the
//     design at one operation per 4 cycles, and what a pipelined ASIC
//     could do,
//  3. trigger model — §3.2.1's trade-off: output-triggered enqueue puts
//     the rank computation on the critical dequeue path.
func Ablation() *Table {
	t := &Table{
		ID:      "ablation",
		Title:   "Design ablations (sublist geometry / pipelining / trigger model)",
		Columns: []string{"study", "configuration", "metric", "value"},
	}

	// 1. Sublist geometry at N=4096 (sqrt = 64).
	const n = 4096
	for _, s := range []int{8, 16, 32, 64, 128, 256, 512} {
		g := hwmodel.GeometryWithSublistSize(n, s)
		r := hwmodel.PIEOResources(g)
		label := fmt.Sprintf("N=4096 S=%d", s)
		if s == 64 {
			label += " (sqrt)"
		}
		t.Rows = append(t.Rows, []string{
			"sublist-size", label, "ALMs",
			fmt.Sprintf("%d (ff %d, cmp %d)", r.ALMs, r.FlipFlopBits, r.Comparators16),
		})
	}
	for _, s := range []int{8, 64, 512} {
		goNs := measureGoNsPerOpWithSublist(n, s, 100_000)
		t.Rows = append(t.Rows, []string{
			"sublist-size", fmt.Sprintf("N=4096 S=%d", s), "Go model ns/op",
			fmt.Sprintf("%.0f", goNs),
		})
	}

	// 2. Pipelining: decisions per second at the modeled clock.
	for _, size := range []int{1 << 10, 30000} {
		f := hwmodel.PIEOClockMHz(hwmodel.PIEOGeometry(size))
		t.Rows = append(t.Rows,
			[]string{"pipelining", fmt.Sprintf("%s non-pipelined (prototype)", sizeLabel(size)), "Mops/s",
				fmt.Sprintf("%.1f", hwmodel.SchedulingRateMops(f, hwmodel.CyclesPerOp))},
			[]string{"pipelining", fmt.Sprintf("%s fully pipelined (SRAM-port bound lifted)", sizeLabel(size)), "Mops/s",
				fmt.Sprintf("%.1f", hwmodel.SchedulingRateMops(f, 1))},
		)
	}

	// 3. Trigger model: measured critical-path cost of the dequeue and
	// arrival paths under each model for a pacing program.
	for _, m := range []struct {
		model string
		prog  *sched.Program
	}{{"output-triggered", paceOutput()}, {"input-triggered", algos.Pacer()}} {
		arrivalNs, dequeueNs := measureTriggerModel(m.prog, 50_000)
		t.Rows = append(t.Rows,
			[]string{"trigger-model", m.model, "arrival path ns", fmt.Sprintf("%.0f", arrivalNs)},
			[]string{"trigger-model", m.model, "dequeue path ns", fmt.Sprintf("%.0f", dequeueNs)},
		)
	}
	t.Notes = []string{
		"logic is minimized near S = sqrt(N); far smaller S inflates the pointer array, far larger S inflates staging/comparators",
		"output-triggered runs PreEnqueue on the dequeue path; input-triggered precomputes at arrival (§3.2.1)",
	}
	return t
}

func measureGoNsPerOpWithSublist(n, s, ops int) float64 {
	l := core.NewWithSublistSize(n, s)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n/2; i++ {
		if err := l.Enqueue(core.Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16)), SendTime: clock.Always}); err != nil {
			panic(err)
		}
	}
	nextID := uint32(n)
	start := time.Now()
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			nextID++
			_ = l.Enqueue(core.Entry{ID: nextID, Rank: uint64(rng.Intn(1 << 16)), SendTime: clock.Always})
		} else {
			l.Dequeue(0)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// paceOutput is algos.Pacer's release-time algorithm output-triggered:
// the flow is ranked by its head packet's SendAt at every re-enqueue.
func paceOutput() *sched.Program {
	return sched.FromPolicy(&policy.Policy{
		Name: "pace-output",
		Rank: func(n *policy.Node, now clock.Time, a *policy.Attrs, head flowq.Packet, backlog uint64) {
			a.Rank = uint64(head.SendAt)
			a.SendTime = head.SendAt
		},
	})
}

// measureTriggerModel times one pacing program: the same release-time
// algorithm computed at dequeue-driven re-enqueue (output-triggered) or
// at arrival (input-triggered).
func measureTriggerModel(prog *sched.Program, ops int) (arrivalNs, dequeueNs float64) {
	const nFlows = 1024
	s := sched.New(prog, nFlows, 40)

	rng := rand.New(rand.NewSource(7))
	arrive := func(i int) flowq.Packet {
		return flowq.Packet{
			Flow:   flowq.FlowID(rng.Intn(nFlows)),
			Size:   1500,
			SendAt: clock.Time(rng.Intn(1 << 20)),
			Seq:    uint64(i),
		}
	}
	// Warm up with a standing backlog.
	for i := 0; i < nFlows*2; i++ {
		s.OnArrival(0, arrive(i))
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		s.OnArrival(0, arrive(i))
	}
	arrivalNs = float64(time.Since(start).Nanoseconds()) / float64(ops)

	start = time.Now()
	served := 0
	for served < ops {
		if _, ok := s.NextPacket(clock.Time(1) << 40); !ok {
			break
		}
		served++
	}
	if served > 0 {
		dequeueNs = float64(time.Since(start).Nanoseconds()) / float64(served)
	}
	return arrivalNs, dequeueNs
}
