package experiments

import (
	"fmt"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/netsim"
	"pieo/internal/policy"
	_ "pieo/internal/shard" // registers the "sharded" backend
	"pieo/internal/stats"
)

// The §4.2 logical-partitioning experiment: the §6.3 enforcement study
// (Fig 11/12) rerun at 100x the leaf count — 100 VMs of 100 flows each,
// 10k+ logical nodes — with every logical node multiplexed onto ONE
// shared engine via the partition allocator. The per-level layout (one
// physical PIEO per depth) is the reference row; each partitioned row
// must enforce the same rates through a single backend. Both run the
// one logical-PIEO path of internal/hier in different arrangements, so
// the reference is not an independent oracle: internal/oracle is.
const (
	hierScaleLinkGbps  = 40
	hierScaleMTU       = 1500
	hierScaleSampledVM = 0
)

// hierScaleRates is the sampled VM's rate-limit sweep: the bottom,
// middle, and top of the Fig 11 sweep, enough to show enforcement and
// fair division without a 7-point sweep at 10k leaves.
var hierScaleRates = []float64{1, 8, 32}

// buildHierScale grows the two-level Token-Bucket-over-WF²Q+ tree into
// the hierarchy produced by mk and applies the §6.3 control plane: the
// sampled VM gets the limit under test, the others split 90% of what
// remains so enforcement is observable in isolation.
func buildHierScale(mk func(rootPolicy *hier.Policy) *hier.Hierarchy, nVMs, nFlows int, sampledGbps float64) *hier.Hierarchy {
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

	otherRate := (hierScaleLinkGbps - sampledGbps) * 0.9 / float64(nVMs-1)
	for v, vm := range vms {
		self := vm.Self()
		self.RateGbps = otherRate
		if v == hierScaleSampledVM {
			self.RateGbps = sampledGbps
		}
		// The bucket cap must absorb tokens accrued while the VM waits
		// behind the other VMs' packets — up to nVMs-1 wire times, so
		// unlike the 10-VM study the depth must scale with the fan-out
		// or high limits undershoot (see enforcement.go). The INITIAL
		// fill stays shallow: starting every VM with the full deep
		// bucket makes the first tens of ms a credit storm where the
		// link splits evenly regardless of configured rates.
		self.Burst = float64(2*nVMs) * hierScaleMTU
		self.Tokens = 8 * hierScaleMTU
	}
	return h
}

// runHierScale drives one closed-loop trial and returns the sampled
// VM's achieved rate, its per-flow rates, and the total packets the
// link carried.
func runHierScale(h *hier.Hierarchy, nVMs, nFlows int, dur clock.Time) (vmGbps float64, flowGbps []float64, pkts uint64) {
	sim := netsim.New(netsim.Link{RateGbps: hierScaleLinkGbps}, h)
	vmMeter := stats.NewRateMeter(0)
	flowBytes := make([]uint64, nFlows)
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		if int(p.Flow)/nFlows == hierScaleSampledVM {
			vmMeter.Record(now, p.Size)
			flowBytes[int(p.Flow)%nFlows] += uint64(p.Size)
		}
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < flowq.FlowID(nVMs*nFlows); f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: f, Size: hierScaleMTU, Seq: seq})
		}
	}
	sim.Run(dur)
	vmMeter.CloseAt(dur)

	flowGbps = make([]float64, nFlows)
	for i, b := range flowBytes {
		flowGbps[i] = float64(b) * 8 / float64(dur)
	}
	return vmMeter.Gbps(), flowGbps, sim.Sent()
}

// hierScaleVariant is one hierarchy layout under test.
type hierScaleVariant struct {
	name string
	mk   func(rootPolicy *hier.Policy) *hier.Hierarchy
}

// hierScaleVariants enumerates the layouts: the per-level reference first,
// then the partitioned single-engine layout over the exact
// single-threaded list and the concurrent engine.
func hierScaleVariants() []hierScaleVariant {
	variants := []hierScaleVariant{
		{"per-level/core", func(p *hier.Policy) *hier.Hierarchy {
			return hier.New(hierScaleLinkGbps, p)
		}},
	}
	for _, be := range []string{"core", "sharded"} {
		variants = append(variants, hierScaleVariant{"partitioned/" + be, func(p *hier.Policy) *hier.Hierarchy {
			return hier.NewPartitionedOn(hierScaleLinkGbps, p, func(n int) backend.Backend {
				b, err := backend.New(be, n)
				if err != nil {
					panic(fmt.Sprintf("hierscale: backend %q: %v", be, err))
				}
				return b
			})
		}})
	}
	return variants
}

// HierScale reproduces the Fig 11/12 enforcement study at 100x scale:
// a 10k-leaf two-level hierarchy whose logical nodes are multiplexed
// onto one shared engine by the partition allocator, compared against
// the per-level reference at every rate point, 20 ms per trial as in §6.3.
func HierScale() *Table { return hierScale(100, 100, 20_000_000) }

// hierScale is HierScale at a given size (the test runs it small).
func hierScale(nVMs, nFlows int, dur clock.Time) *Table {
	var rows [][]string
	variants := hierScaleVariants()
	for _, rate := range hierScaleRates {
		for _, v := range variants {
			h := buildHierScale(v.mk, nVMs, nFlows, rate)
			vmGbps, flowGbps, pkts := runHierScale(h, nVMs, nFlows, dur)
			rows = append(rows, []string{
				v.name,
				fmt.Sprintf("%d", nVMs*nFlows),
				fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.3f", vmGbps),
				fmt.Sprintf("%+.2f%%", 100*(vmGbps-rate)/rate),
				fmt.Sprintf("%.5f", stats.JainIndex(flowGbps)),
				fmt.Sprintf("%d", pkts),
			})
		}
	}
	return &Table{
		ID:    "hierscale",
		Title: fmt.Sprintf("Logical partitioning at scale: %d VMs x %d flows, TB over WF2Q+ on one shared engine (Fig 11/12 at 100x)", nVMs, nFlows),
		Columns: []string{"layout", "leaves", "configured Gbps", "measured Gbps", "error",
			"Jain (sampled VM)", "packets"},
		Rows: rows,
		Notes: []string{
			"per-level/core is the reference (one physical PIEO per depth, the same code in another arrangement); partitioned rows multiplex every logical node onto one backend via §4.2 index ranges",
			"Jain index is over the sampled VM's per-flow rates (ideal 1.0 under WF2Q+)",
			"per-packet cost of the partitioned layout is the hier_partitioned workload of `go run ./bench`",
		},
	}
}
