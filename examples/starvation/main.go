// Asynchronous scheduling (§4.4): strict priority with starvation
// avoidance. A low-priority flow would starve behind two chatty
// high-priority flows; a periodic aging alarm uses PIEO's dequeue(f)
// operation to pull the starving flow out of the ordered list, raise its
// priority, and push it back — something PIFO cannot do, because it
// cannot touch elements below the head.
//
// Run: go run ./examples/starvation
package main

import (
	"fmt"
	"io"
	"os"

	"pieo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "starvation:", err)
		os.Exit(1)
	}
}

// run simulates the flows with and without aging and writes the report
// to w. It fails unless flow 3 starves completely without aging and
// gets service with it.
func run(w io.Writer) error {
	const (
		linkGbps  = 40
		duration  = pieo.Time(2_000_000) // 2 ms
		mtu       = 1500
		threshold = pieo.Time(50_000) // starving after 50 us unserved
	)

	// Each alarm firing raises a starving flow one priority level and
	// restarts its aging window (§4.4), so the rescue takes
	// (20-10) * threshold = 0.5 ms of sustained starvation.
	simulate := func(aging bool) (bytes map[pieo.FlowID]uint64) {
		s := pieo.NewScheduler(pieo.StrictPriority(), 8, linkGbps)
		s.Flow(1).Priority = 10
		s.Flow(2).Priority = 10
		s.Flow(3).Priority = 20 // the background flow that starves

		sim := pieo.NewSim(pieo.Link{RateGbps: linkGbps}, s)
		bytes = map[pieo.FlowID]uint64{}
		var seq uint64
		ids := []pieo.FlowID{1, 2, 3}
		sim.OnTransmit = func(now pieo.Time, p pieo.Packet) {
			bytes[p.Flow] += uint64(p.Size)
			seq++
			sim.InjectOne(now, pieo.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
			if aging {
				// The async alarm: boost any flow unserved for the
				// threshold. (In hardware this is a timer event; here we
				// piggyback on transmit completions.)
				pieo.AgeStarvedFlows(s, now, threshold, 0, ids)
			}
		}
		for _, id := range ids {
			for k := 0; k < 4; k++ {
				seq++
				sim.InjectOne(0, pieo.Packet{Flow: id, Size: mtu, Seq: seq})
			}
		}
		sim.Run(duration)
		return bytes
	}

	without := simulate(false)
	with := simulate(true)

	fmt.Fprintf(w, "strict priority on %d Gbps, flows 1,2 at priority 10, flow 3 at 20; %v ms\n",
		linkGbps, uint64(duration)/1_000_000)
	fmt.Fprintln(w, "flow  no-aging Gbps  with-aging Gbps")
	for id := pieo.FlowID(1); id <= 3; id++ {
		fmt.Fprintf(w, "%-4d  %-13.3f  %.3f\n", id,
			float64(without[id])*8/float64(duration),
			float64(with[id])*8/float64(duration))
	}
	if without[3] != 0 {
		return fmt.Errorf("flow 3 got %d bytes without aging, want it starved", without[3])
	}
	fmt.Fprintln(w, "flow 3 starved completely without aging")
	if with[3] == 0 {
		return fmt.Errorf("flow 3 still starved with the aging alarm")
	}
	fmt.Fprintln(w, "the aging alarm (dequeue(f) -> boost -> enqueue(f)) rescued flow 3")
	return nil
}
