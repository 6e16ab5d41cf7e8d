package experiments

import (
	"fmt"

	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/netsim"
	"pieo/internal/policy"
	"pieo/internal/stats"
)

// The §6.3 prototype experiment: a two-level hierarchical scheduler with
// ten level-2 nodes (VMs) of ten flows each on a 40 Gbps link, scheduling
// at MTU granularity. Token Bucket enforces a per-VM rate limit at the
// top level; WF²Q+ shares each VM's limit fairly across its ten flows.
const (
	enfVMs       = 10
	enfFlowsPer  = 10
	enfLinkGbps  = 40
	enfMTU       = 1500
	enfDuration  = clock.Time(20_000_000) // 20 ms of simulated time
	enfSampledVM = 0                      // the "random level-2 node" the paper samples
)

// rateSweep is the set of rate limits configured on the sampled VM.
var rateSweep = []float64{1, 2, 4, 8, 16, 24, 32}

// runEnforcement builds the §6.3 scheduler, sets the sampled VM's rate
// limit to sampledGbps (the other nine VMs share a fraction of what
// remains), runs 20 ms of backlogged traffic, and returns the sampled
// VM's achieved rate and its ten per-flow rates.
func runEnforcement(sampledGbps float64) (vmGbps float64, flowGbps []float64) {
	h := hier.New(enfLinkGbps, policy.TokenBucket())
	var vms []*hier.Node
	id := flowq.FlowID(0)
	for v := 0; v < enfVMs; v++ {
		vm := h.Root().AddNode(fmt.Sprintf("vm%d", v), policy.WF2Q())
		for f := 0; f < enfFlowsPer; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()

	// Control plane: the sampled VM gets the limit under test; the rest
	// split 90% of the remaining bandwidth so the link never saturates
	// and enforcement is observable in isolation.
	otherRate := (enfLinkGbps - sampledGbps) * 0.9 / float64(enfVMs-1)
	for v, vm := range vms {
		self := vm.Self()
		self.RateGbps = otherRate
		if v == enfSampledVM {
			self.RateGbps = sampledGbps
		}
		// The bucket must be deep enough that tokens accrued while the
		// VM waits behind the other nine VMs' packets (up to ~9 wire
		// times) are not discarded at the cap, or high limits undershoot.
		self.Burst = 8 * enfMTU
		self.Tokens = self.Burst
	}

	sim := netsim.New(netsim.Link{RateGbps: enfLinkGbps}, h)
	vmMeter := stats.NewRateMeter(0)
	flowBytes := make([]uint64, enfFlowsPer)
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		if int(p.Flow)/enfFlowsPer == enfSampledVM {
			vmMeter.Record(now, p.Size)
			flowBytes[int(p.Flow)%enfFlowsPer] += uint64(p.Size)
		}
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < flowq.FlowID(enfVMs*enfFlowsPer); f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: f, Size: enfMTU, Seq: seq})
		}
	}
	sim.Run(enfDuration)
	vmMeter.CloseAt(enfDuration)

	flowGbps = make([]float64, enfFlowsPer)
	for i, b := range flowBytes {
		flowGbps[i] = float64(b) * 8 / float64(enfDuration)
	}
	return vmMeter.Gbps(), flowGbps
}

// RunEnforcementPoint runs a single Fig 11/12 trial at the given rate
// limit and returns the sampled VM's measured rate and its per-flow
// rates. Exported for the benchmark harness.
func RunEnforcementPoint(gbps float64) (float64, []float64) {
	return runEnforcement(gbps)
}

// Fig11 reproduces the rate-limit enforcement study: configured vs
// measured throughput of the sampled VM across the rate sweep.
func Fig11() *Table {
	var rows [][]string
	for _, r := range rateSweep {
		got, _ := runEnforcement(r)
		errPct := 100 * (got - r) / r
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", r),
			fmt.Sprintf("%.3f", got),
			fmt.Sprintf("%+.2f%%", errPct),
		})
	}
	return &Table{
		ID:      "fig11",
		Title:   "Rate-limit enforcement: 10 VMs x 10 flows, 40 Gbps, Token Bucket at level 2 (Fig 11)",
		Columns: []string{"configured Gbps", "measured Gbps", "error"},
		Rows:    rows,
		Notes: []string{
			"measured over 20 ms of MTU-granularity traffic on the sampled VM",
		},
	}
}

// Fig12 reproduces the fair-queueing enforcement study: for each rate
// limit on the sampled VM, the ten flows inside it must each receive
// limit/10 under WF²Q+.
func Fig12() *Table {
	var rows [][]string
	for _, r := range rateSweep {
		_, flows := runEnforcement(r)
		sum := stats.Summarize(flows)
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", r),
			fmt.Sprintf("%.3f", r/enfFlowsPer),
			fmt.Sprintf("%.3f", sum.Mean),
			fmt.Sprintf("%.3f", sum.Min),
			fmt.Sprintf("%.3f", sum.Max),
			fmt.Sprintf("%.5f", stats.JainIndex(flows)),
		})
	}
	return &Table{
		ID:      "fig12",
		Title:   "Fair-queue enforcement inside the sampled VM: WF2Q+ across 10 flows (Fig 12)",
		Columns: []string{"VM limit Gbps", "ideal/flow", "mean/flow", "min/flow", "max/flow", "Jain index"},
		Rows:    rows,
		Notes: []string{
			"each flow should receive exactly a tenth of the VM's rate limit",
		},
	}
}
