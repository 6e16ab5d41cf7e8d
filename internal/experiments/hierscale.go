package experiments

import (
	"fmt"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/hier"
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

// hierScaleRates is the sampled VM's rate-limit sweep: the bottom,
// middle, and top of the Fig 11 sweep, enough to show enforcement and
// fair division without a 7-point sweep at 10k leaves.
var hierScaleRates = []float64{1, 8, 32}

// hierScaleVariant is one hierarchy layout under test.
type hierScaleVariant struct {
	name string
	mk   func(rootPolicy *hier.Policy) *hier.Hierarchy
}

// hierScaleVariants enumerates the layouts: the per-level reference
// first, then the partitioned single-list layout over the exact list.
func hierScaleVariants() []hierScaleVariant {
	return []hierScaleVariant{
		{"per-level/core", perLevel},
		{"partitioned/core", func(p *hier.Policy) *hier.Hierarchy {
			return hier.NewPartitionedOn(linkGbps, p, func(n int) backend.Backend { return backend.NewCoreList(n) })
		}},
	}
}

// HierScale reproduces the Fig 11/12 enforcement study at 100x scale:
// a 10k-leaf two-level hierarchy whose logical nodes are multiplexed
// onto one shared engine by the partition allocator, compared against
// the per-level reference at every rate point, 20 ms per trial as in §6.3.
func HierScale() *Table { return hierScale(100, 100, trialDuration) }

// hierScale is HierScale at a given size (the test runs it small).
func hierScale(nVMs, nFlows int, dur clock.Time) *Table {
	var rows [][]string
	variants := hierScaleVariants()
	for _, rate := range hierScaleRates {
		for _, v := range variants {
			// The bucket cap must absorb tokens accrued while the VM
			// waits behind the other VMs' packets — up to nVMs-1 wire
			// times, so unlike Fig 11 the depth scales with the fan-out
			// or high limits undershoot. The initial fill stays shallow:
			// starting every VM with the full deep bucket makes the
			// first tens of ms a credit storm where the link splits
			// evenly regardless of configured rates.
			h := twoLevel(v.mk, nVMs, nFlows, rate, float64(2*nVMs)*mtu, 8*mtu)
			vmGbps, flowGbps, pkts := enforce(h, nVMs, nFlows, dur)
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
