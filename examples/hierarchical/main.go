// Hierarchical scheduling: the paper's §6.3 flagship experiment in
// miniature. A two-level tree on a 40 Gbps link: Token Bucket rate
// limits each VM at the top level, WF²Q+ shares each VM's budget fairly
// across its flows at the bottom level. Each level is one physical PIEO,
// logically partitioned per node via index-range predicates (§4.3).
//
// Run: go run ./examples/hierarchical
package main

import (
	"fmt"
	"io"
	"os"

	"pieo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hierarchical:", err)
		os.Exit(1)
	}
}

// run simulates the tree and writes the report to w. It fails if a VM's
// rate is more than 1 % off its limit or a flow's rate is more than 2 %
// off an equal share of its VM's limit.
func run(w io.Writer) error {
	const (
		linkGbps = 40
		duration = pieo.Time(20_000_000) // 20 ms
		mtu      = 1500
		nVMs     = 4
		perVM    = 5
	)
	limits := []float64{4, 8, 12, 6}

	h := pieo.NewHierarchy(linkGbps, pieo.TokenBucketPolicy())
	var vms []*pieo.Node
	id := pieo.FlowID(0)
	for v := 0; v < nVMs; v++ {
		vm := h.Root().AddNode(fmt.Sprintf("vm%d", v), pieo.WF2QPolicy())
		for f := 0; f < perVM; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()

	// Control plane: per-VM rate limits.
	for v, vm := range vms {
		self := vm.Self()
		self.RateGbps = limits[v]
		self.Burst = 8 * mtu
		self.Tokens = self.Burst
	}

	sim := pieo.NewSim(pieo.Link{RateGbps: linkGbps}, h)
	flowBytes := make([]uint64, nVMs*perVM)
	var seq uint64
	sim.OnTransmit = func(now pieo.Time, p pieo.Packet) {
		flowBytes[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, pieo.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := pieo.FlowID(0); f < nVMs*perVM; f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, pieo.Packet{Flow: f, Size: mtu, Seq: seq})
		}
	}
	sim.Run(duration)

	fmt.Fprintf(w, "two-level hierarchy: %d VMs x %d flows on %d Gbps, %v ms simulated\n",
		nVMs, perVM, linkGbps, uint64(duration)/1_000_000)
	fmt.Fprintln(w, "vm   limit  measured  per-flow Gbps (WF2Q+ shares inside the VM)")
	within := func(got, want, tol float64) bool { return got >= (1-tol)*want && got <= (1+tol)*want }
	var err error
	for v := 0; v < nVMs; v++ {
		var vmBytes uint64
		row := ""
		for f := 0; f < perVM; f++ {
			b := flowBytes[v*perVM+f]
			vmBytes += b
			gbps := float64(b) * 8 / float64(duration)
			row += fmt.Sprintf(" %.2f", gbps)
			if !within(gbps, limits[v]/perVM, 0.02) {
				err = fmt.Errorf("vm%d flow %d measured %.3f Gbps against an equal share of %.2f", v, f, gbps, limits[v]/perVM)
			}
		}
		vmGbps := float64(vmBytes) * 8 / float64(duration)
		fmt.Fprintf(w, "vm%-2d %-6.1f %-9.3f%s\n", v, limits[v], vmGbps, row)
		if !within(vmGbps, limits[v], 0.01) {
			err = fmt.Errorf("vm%d measured %.3f Gbps against a limit of %.1f", v, vmGbps, limits[v])
		}
	}
	fmt.Fprintf(w, "link utilization: %.1f%%\n", 100*sim.Utilization())
	return err
}
