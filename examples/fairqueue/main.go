// Fair queueing: WF²Q+ (§4.1) — the algorithm that motivated PIEO,
// because its "smallest finish time among flows whose start time has
// passed" rule needs predicate-filtered dequeue. Four flows with weights
// 4:2:1:1 share a 40 Gbps link; measured shares match the weights.
//
// Run: go run ./examples/fairqueue
package main

import (
	"fmt"
	"io"
	"os"

	"pieo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fairqueue:", err)
		os.Exit(1)
	}
}

// run schedules the four flows and writes the report to w. It fails if
// a flow's measured rate is more than 1 % off its weighted share or the
// link is not kept busy.
func run(w io.Writer) error {
	const (
		linkGbps = 40
		duration = pieo.Time(10_000_000) // 10 ms
		mtu      = 1500
	)
	weights := map[pieo.FlowID]uint64{1: 4, 2: 2, 3: 1, 4: 1}

	s := pieo.NewScheduler(pieo.WF2Q(), 8, linkGbps)
	for id, w := range weights {
		s.SetWeight(id, w)
	}

	sim := pieo.NewSim(pieo.Link{RateGbps: linkGbps}, s)
	bytes := map[pieo.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now pieo.Time, p pieo.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, pieo.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for id := range weights {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, pieo.Packet{Flow: id, Size: mtu, Seq: seq})
		}
	}
	sim.Run(duration)

	var totalW uint64
	for _, w := range weights {
		totalW += w
	}
	fmt.Fprintf(w, "WF2Q+ on a %d Gbps link, weights 4:2:1:1, %v ms simulated\n", linkGbps, uint64(duration)/1_000_000)
	fmt.Fprintln(w, "flow  weight  ideal Gbps  measured Gbps")
	var err error
	for id := pieo.FlowID(1); id <= 4; id++ {
		ideal := float64(linkGbps) * float64(weights[id]) / float64(totalW)
		got := float64(bytes[id]) * 8 / float64(duration)
		fmt.Fprintf(w, "%-4d  %-6d  %-10.2f  %.3f\n", id, weights[id], ideal, got)
		if got < 0.99*ideal || got > 1.01*ideal {
			err = fmt.Errorf("flow %d measured %.3f Gbps against an ideal of %.2f", id, got, ideal)
		}
	}
	fmt.Fprintf(w, "link utilization: %.1f%% (work-conserving)\n", 100*sim.Utilization())
	if u := sim.Utilization(); u < 0.999 {
		err = fmt.Errorf("link utilization %.2f%%, want a work-conserving ≥ 99.9%%", 100*u)
	}
	return err
}
