package experiments

import (
	"fmt"

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

		pieoDev, _ := stats.OrderDeviation(ideal, pieoWF2QOrder(items))
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
