package experiments

import (
	"fmt"
	"math/rand"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/pifo"
	"pieo/internal/stats"
)

// Deviation quantifies the §2.3 claim: "O(N) elements could become
// eligible at any given time, which in the worst-case could result in
// O(N) deviation from the ideal scheduling order". The adversarial
// instance makes all N flows eligible simultaneously with finish times in
// the reverse of their start order; the two-PIFO emulation releases them
// in start order and deviates linearly in N, while PIEO reproduces the
// ideal order exactly at every size.
func Deviation() *Table {
	var rows [][]string
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		items := adversarialInstance(n)
		ideal := idealWF2QOrder(items)

		two := emulatedOrder(items, pifo.NewTwoPIFO(items))
		maxDev, meanDev := stats.OrderDeviation(ideal, two)

		pieoDev, _ := stats.OrderDeviation(ideal, idealWF2QOrder(items))
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", maxDev),
			fmt.Sprintf("%.1f", meanDev),
			fmt.Sprintf("%.2f", float64(maxDev)/float64(n)),
			fmt.Sprintf("%d", pieoDev),
		})
	}
	return &Table{
		ID:      "deviation",
		Title:   "Worst-case order deviation of two-PIFO WF2Q+ emulation vs N (§2.3)",
		Columns: []string{"N", "two-PIFO max-dev", "two-PIFO mean-dev", "max-dev / N", "PIEO max-dev"},
		Rows:    rows,
		Notes: []string{
			"all N flows become eligible at once; finish order is the reverse of start order",
			"two-PIFO deviation grows linearly with N (max-dev/N approaches 1); PIEO is always exact",
		},
	}
}

// qdevWidths is the bucket-width sweep for the quantization-deviation
// experiment: width 1 (exact), then three lossy widths spanning the
// realistic operating range against ranks drawn from [0, 2^16).
var qdevWidths = []uint64{1, 16, 256, 4096}

// QuantDeviation quantifies the rank-quantization trade a bucketed list
// makes (Eiffel's FFS queues; the "Everything Matters" study, arXiv
// 2308.00797): the same random-rank workload is drained from the exact
// core list (the oracle) and from a core list keyed by ⌊rank/width⌋,
// where one bucket's elements dequeue FIFO, at several bucket widths. The
// divergence between the two orders is reported as pairwise order
// inversions plus positional deviation. Width 1 must be all-zero — integer
// ranks quantize losslessly — and any wider bucket can only reorder
// elements whose ranks fall in the same bucket, so max rank error is
// bounded by width-1.
func QuantDeviation() *Table {
	const n = 2048
	var rows [][]string
	for _, width := range qdevWidths {
		idealEs, gotEs := quantDrainOrders(n, width)
		ideal, got := entryIDs(idealEs), entryIDs(gotEs)
		maxDev, meanDev := stats.OrderDeviation(ideal, got)
		rows = append(rows, []string{
			fmt.Sprintf("%d", width),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", countInversions(ideal, got)),
			fmt.Sprintf("%d", maxDev),
			fmt.Sprintf("%.1f", meanDev),
			fmt.Sprintf("%d", width-1),
		})
	}
	return &Table{
		ID:      "qdev",
		Title:   "Rank quantization: dequeue-order divergence from the exact core oracle",
		Columns: []string{"bucket width", "N", "inversions", "max pos-dev", "mean pos-dev", "max rank error"},
		Rows:    rows,
		Notes: []string{
			fmt.Sprintf("%d entries, ranks uniform in [0, 2^16), identical enqueue order on both structures, full drain", n),
			"inversions = element pairs the quantized drain emits in the opposite relative order to the oracle",
			"width 1 is exact by construction: integer ranks quantize to themselves",
			"inverted pairs always share a bucket, so their true ranks differ by less than the width",
		},
	}
}

// quantDrainOrders feeds one deterministic workload to the exact core
// list and to a second core list fed ⌊rank/width⌋, and returns both
// full drains. The quantized drain's entries carry their
// bucket as their rank.
func quantDrainOrders(n int, width uint64) (ideal, got []core.Entry) {
	oracle := backend.NewCoreList(n)
	quant := backend.NewCoreList(n)
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < n; i++ {
		ent := core.Entry{ID: uint32(i + 1), Rank: uint64(rng.Intn(1 << 16)), SendTime: clock.Always}
		if err := oracle.Enqueue(ent); err != nil {
			panic(fmt.Sprintf("experiments: qdev oracle enqueue: %v", err))
		}
		ent.Rank /= width
		if err := quant.Enqueue(ent); err != nil {
			panic(fmt.Sprintf("experiments: qdev quantized enqueue: %v", err))
		}
	}
	drain := func(b backend.Backend) []core.Entry {
		out := make([]core.Entry, 0, n)
		for {
			ent, ok := b.Dequeue(clock.Time(1 << 60))
			if !ok {
				return out
			}
			out = append(out, ent)
		}
	}
	return drain(oracle), drain(quant)
}

// entryIDs renders a drain as ID strings for stats.OrderDeviation.
func entryIDs(es []core.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%d", e.ID)
	}
	return out
}

// countInversions counts element pairs that got emits in the opposite
// relative order to want — the classic Kendall-tau distance between the
// two drains. Quadratic, but the experiment's N keeps it trivial.
func countInversions(want, got []string) int {
	pos := make(map[string]int, len(want))
	for i, id := range want {
		pos[id] = i
	}
	inv := 0
	for i := 0; i < len(got); i++ {
		for j := i + 1; j < len(got); j++ {
			if pos[got[i]] > pos[got[j]] {
				inv++
			}
		}
	}
	return inv
}

// adversarialInstance builds N flows that all become eligible at the
// same virtual instant (identical starts) with finish times decreasing in
// enqueue order: the ideal schedule is the exact reverse of enqueue
// order, but a start-ordered eligibility PIFO releases ties in FIFO
// (enqueue) order, so the two-PIFO emulation transmits them exactly
// backwards.
func adversarialInstance(n int) []pifo.Item {
	items := make([]pifo.Item, n)
	base := uint64(10)
	for i := 0; i < n; i++ {
		items[i] = pifo.Item{
			ID:     uint32(i),
			Name:   fmt.Sprintf("f%d", i),
			Start:  5,
			Finish: base + uint64(2*(n-i)), // decreasing in i, all > start
			Size:   1,
		}
	}
	return items
}
