package experiments

import (
	"fmt"
	"math/rand"

	"pieo/internal/algos"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/hwmodel"
	"pieo/internal/hwsim"
	"pieo/internal/policy"
	"pieo/internal/sched"
)

// Ablation studies the design choices DESIGN.md calls out (pipelining
// is the pipeline table's):
//
//  1. sublist geometry — the √N sublist size minimizes logic (the §5
//     trade-off between pointer-array width and sublist width),
//  2. trigger model — §3.2.1's trade-off: output-triggered enqueue puts
//     the rank computation on the critical dequeue path.
func Ablation() *Table {
	t := &Table{
		ID:      "ablation",
		Title:   "Design ablations (sublist geometry / trigger model)",
		Columns: []string{"study", "configuration", "metric", "value"},
	}

	// 1. Sublist geometry at N=4096 (sqrt = 64).
	const n = 4096
	for _, s := range []int{8, 16, 32, 64, 128, 256, 512} {
		r := hwmodel.PIEOResources(hwsim.Shape(n, s))
		label := fmt.Sprintf("N=4096 S=%d", s)
		if s == 64 {
			label += " (sqrt)"
		}
		t.Rows = append(t.Rows, []string{
			"sublist-size", label, "ALMs",
			fmt.Sprintf("%d (ff %d, cmp %d)", r.ALMs, r.FlipFlopBits, r.Comparators16),
		})
	}

	// 2. Trigger model: where each model runs the rank computation of
	// one pacing program.
	for _, m := range []struct {
		model string
		prog  *sched.Program
	}{{"output-triggered", paceOutput()}, {"input-triggered", algos.Pacer()}} {
		perArrival, perDequeue := rankCalls(m.prog, 50_000)
		t.Rows = append(t.Rows,
			[]string{"trigger-model", m.model, "rank computations per arrival", fmt.Sprintf("%.3f", perArrival)},
			[]string{"trigger-model", m.model, "rank computations per dequeue", fmt.Sprintf("%.3f", perDequeue)},
		)
	}
	t.Notes = []string{
		"logic is minimized near S = sqrt(N); far smaller S inflates the pointer array, far larger S inflates staging/comparators",
		"output-triggered runs Policy.Rank at every re-enqueue on the dequeue path; input-triggered runs PrePacket once per arrival (§3.2.1)",
		"the ALM rows are the hardware model; the software's ns/op per sublist size is BenchmarkAblationSublistSize, per packet `go run ./bench`",
	}
	return t
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

// rankCalls runs ops arrivals and then ops dequeues of one program over
// a standing backlog of 1024 flows, and counts its rank computations —
// Policy.Rank or PrePacket calls — per arriving and per dequeued packet.
func rankCalls(prog *sched.Program, ops int) (perArrival, perDequeue float64) {
	const nFlows = 1024
	calls := 0
	counted := *prog
	if pre := prog.PrePacket; pre != nil {
		counted.PrePacket = func(s *sched.Scheduler, now clock.Time, f *sched.Flow, p *flowq.Packet) {
			calls++
			pre(s, now, f, p)
		}
	}
	if prog.Policy != nil {
		pol := *prog.Policy
		rank := pol.Rank
		pol.Rank = func(n *policy.Node, now clock.Time, a *policy.Attrs, head flowq.Packet, backlog uint64) {
			calls++
			rank(n, now, a, head, backlog)
		}
		counted.Policy = &pol
	}
	s := sched.New(&counted, nFlows, 40)

	rng := rand.New(rand.NewSource(7))
	arrive := func(i int) flowq.Packet {
		return flowq.Packet{
			Flow:   flowq.FlowID(rng.Intn(nFlows)),
			Size:   1500,
			SendAt: clock.Time(rng.Intn(1 << 20)),
			Seq:    uint64(i),
		}
	}
	for i := 0; i < nFlows*2; i++ {
		s.OnArrival(0, arrive(i))
	}
	calls = 0
	for i := 0; i < ops; i++ {
		s.OnArrival(0, arrive(i))
	}
	perArrival = float64(calls) / float64(ops)

	calls = 0
	served := 0
	for ; served < ops; served++ {
		if _, ok := s.NextPacket(clock.Time(1) << 40); !ok {
			break
		}
	}
	return perArrival, float64(calls) / float64(served)
}
