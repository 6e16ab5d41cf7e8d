// Rate limiting: the Token Bucket program (§4.2) shaping three tenants
// on a 40 Gbps link — the paper's multi-tenant cloud motivation, flat
// version. Each tenant is limited independently; the link runs
// non-work-conserving (idle gaps even with backlog).
//
// Run: go run ./examples/ratelimit
package main

import (
	"fmt"
	"io"
	"os"

	"pieo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ratelimit:", err)
		os.Exit(1)
	}
}

// run shapes the three tenants and writes the report to w. It fails if a
// tenant's rate is more than 1 % off its limit, or the link is busier
// than the limits allow (the shaper must leave it idle despite backlog).
func run(w io.Writer) error {
	const (
		linkGbps = 40
		duration = pieo.Time(20_000_000) // 20 ms
		mtu      = 1500
	)
	limits := map[pieo.FlowID]float64{1: 2, 2: 5, 3: 10}

	s := pieo.NewScheduler(pieo.TokenBucket(), 8, linkGbps)
	for id, limit := range limits {
		f := s.Flow(id)
		f.RateGbps = limit
		f.Burst = 4 * mtu
		f.Tokens = f.Burst // start with a full bucket
	}

	sim := pieo.NewSim(pieo.Link{RateGbps: linkGbps}, s)
	bytes := map[pieo.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now pieo.Time, p pieo.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		// Closed loop: tenants are always backlogged.
		seq++
		sim.InjectOne(now, pieo.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for id := range limits {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, pieo.Packet{Flow: id, Size: mtu, Seq: seq})
		}
	}
	sim.Run(duration)

	fmt.Fprintf(w, "link: %d Gbps, %d tenants, %v ms simulated\n", linkGbps, len(limits), uint64(duration)/1_000_000)
	fmt.Fprintln(w, "tenant  limit Gbps  measured Gbps  error")
	var err error
	var sumLimits float64
	for id := pieo.FlowID(1); id <= 3; id++ {
		got := float64(bytes[id]) * 8 / float64(duration)
		rel := (got - limits[id]) / limits[id]
		fmt.Fprintf(w, "%-6d  %-10.1f  %-13.3f  %+.2f%%\n", id, limits[id], got, 100*rel)
		if rel < -0.01 || rel > 0.01 {
			err = fmt.Errorf("tenant %d measured %.3f Gbps against a limit of %.1f", id, got, limits[id])
		}
		sumLimits += limits[id]
	}
	fmt.Fprintf(w, "link utilization: %.1f%% (non-work-conserving: idle despite backlog)\n", 100*sim.Utilization())
	if u, bound := sim.Utilization(), 1.01*sumLimits/linkGbps; u > bound {
		err = fmt.Errorf("link utilization %.1f%% exceeds the %.1f%% the limits allow", 100*u, 100*bound)
	}
	return err
}
