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
// hierscale reruns it at 100x the leaves and hier3 one level deeper, all
// through the same closed loop (backlogged).
const (
	linkGbps      = 40
	mtu           = 1500
	trialDuration = clock.Time(20_000_000) // 20 ms of simulated time
	sampledVM     = 0                      // the "random level-2 node" the paper samples
	enfVMs        = 10
	enfFlowsPer   = 10
)

// rateSweep is the set of rate limits configured on the sampled VM.
var rateSweep = []float64{1, 2, 4, 8, 16, 24, 32}

// perLevel makes the reference hierarchy: one physical PIEO per depth.
func perLevel(root *hier.Policy) *hier.Hierarchy { return hier.New(linkGbps, root) }

// twoLevel builds the §6.3 tree in the hierarchy mk makes: a Token
// Bucket root over nVMs WF²Q+ VMs of nFlows flows each. The control
// plane gives the sampled VM the limit under test and splits 90% of the
// remaining link among the others, so the link never saturates and
// enforcement is observable in isolation. Every VM's bucket is burst
// bytes deep and starts holding fill bytes.
func twoLevel(mk func(root *hier.Policy) *hier.Hierarchy, nVMs, nFlows int, sampledGbps, burst, fill float64) *hier.Hierarchy {
	h := mk(policy.TokenBucket())
	var vms []*hier.Node
	id := flowq.FlowID(0)
	for v := 0; v < nVMs; v++ {
		vm := h.Root().AddNode(fmt.Sprintf("vm%d", v), policy.WF2Q())
		for f := 0; f < nFlows; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()

	otherRate := (linkGbps - sampledGbps) * 0.9 / float64(nVMs-1)
	for v, vm := range vms {
		self := vm.Self()
		self.RateGbps = otherRate
		if v == sampledVM {
			self.RateGbps = sampledGbps
		}
		self.Burst = burst
		self.Tokens = fill
	}
	return h
}

// backlogged runs h on the link for dur with flows [0, flows) always
// backlogged: each starts with four MTU packets queued, and every
// transmitted packet is re-injected at once. onTx sees each transmission;
// the result is the number of packets the link carried.
func backlogged(h *hier.Hierarchy, flows int, dur clock.Time, onTx func(now clock.Time, p flowq.Packet)) uint64 {
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		onTx(now, p)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < flowq.FlowID(flows); f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: f, Size: mtu, Seq: seq})
		}
	}
	sim.Run(dur)
	return sim.Sent()
}

// enforce runs a twoLevel tree of nVMs x nFlows backlogged for dur and
// returns the sampled VM's achieved rate, its per-flow rates, and the
// packets the link carried.
func enforce(h *hier.Hierarchy, nVMs, nFlows int, dur clock.Time) (vmGbps float64, flowGbps []float64, pkts uint64) {
	vmMeter := stats.NewRateMeter(0)
	flowBytes := make([]uint64, nFlows)
	pkts = backlogged(h, nVMs*nFlows, dur, func(now clock.Time, p flowq.Packet) {
		if int(p.Flow)/nFlows == sampledVM {
			vmMeter.Record(now, p.Size)
			flowBytes[int(p.Flow)%nFlows] += uint64(p.Size)
		}
	})
	vmMeter.CloseAt(dur)

	flowGbps = make([]float64, nFlows)
	for i, b := range flowBytes {
		flowGbps[i] = float64(b) * 8 / float64(dur)
	}
	return vmMeter.Gbps(), flowGbps, pkts
}

// runEnforcement runs one §6.3 trial with the sampled VM limited to
// sampledGbps and returns its achieved rate and its ten per-flow rates.
// The buckets must be deep enough that tokens accrued while a VM waits
// behind the other nine VMs' packets (up to ~9 wire times) are not
// discarded at the cap, or high limits undershoot.
func runEnforcement(sampledGbps float64) (vmGbps float64, flowGbps []float64) {
	h := twoLevel(perLevel, enfVMs, enfFlowsPer, sampledGbps, 8*mtu, 8*mtu)
	vmGbps, flowGbps, _ = enforce(h, enfVMs, enfFlowsPer, trialDuration)
	return vmGbps, flowGbps
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
