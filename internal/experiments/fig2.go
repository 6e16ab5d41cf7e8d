package experiments

import (
	"fmt"
	"slices"
	"strings"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/pifo"
	"pieo/internal/stats"
)

// fig2Instance is a six-packet WF²Q+ instance in the mold of Fig 2(b):
// packets A–F with virtual start/finish times and transmission lengths.
// The figure's exact numbers are not machine-readable from the paper, so
// this instance is constructed to exercise the same failure narrative:
//   - at virtual time 5, C, D, E and F all become eligible at once and C
//     has the smallest finish time among them (§2.3's "ideally C should
//     have been scheduled"),
//   - D has the earliest start among them, so a start-ordered PIFO
//     releases/schedules D first,
//   - B starts late with a small finish time, so a finish-ordered PIFO
//     schedules it long before it is eligible.
func fig2Instance() []pifo.Item {
	return []pifo.Item{
		{ID: 0, Name: "A", Start: 0, Finish: 20, Size: 5},
		{ID: 1, Name: "B", Start: 25, Finish: 28, Size: 5},
		{ID: 2, Name: "C", Start: 5, Finish: 30, Size: 5},
		{ID: 3, Name: "D", Start: 3, Finish: 50, Size: 10},
		{ID: 4, Name: "E", Start: 5, Finish: 40, Size: 10},
		{ID: 5, Name: "F", Start: 5, Finish: 55, Size: 20},
	}
}

// minStart returns the smallest start among the pending items, of which
// there is at least one.
func minStart(pending []pifo.Item) uint64 {
	m := pending[0].Start
	for _, it := range pending[1:] {
		m = min(m, it.Start)
	}
	return m
}

// wf2qOrder drives one WF²Q+ scheduler through the instance under the
// Fig 2(a) virtual-time rule and returns its transmission order. pick
// names the item the scheduler transmits at virtual time v, or reports
// false when it holds none it will transmit; the link then idles to the
// next pending start, or one tick on when the scheduler is stuck below a
// start already passed.
func wf2qOrder(items []pifo.Item, pick func(v uint64, pending []pifo.Item) (uint32, bool)) []string {
	pending := slices.Clone(items)
	var order []string
	v := uint64(0)
	for guard := 0; len(pending) > 0; guard++ {
		if guard > 10*len(items) {
			panic("experiments: scheduler made no progress")
		}
		id, ok := pick(v, pending)
		if !ok {
			v = max(minStart(pending), v+1)
			continue
		}
		i := slices.IndexFunc(pending, func(it pifo.Item) bool { return it.ID == id })
		it := pending[i]
		pending = slices.Delete(pending, i, i+1)
		order = append(order, it.Name)
		// Fig 2(a): V = max(V + size, min start among pending).
		v += it.Size
		if len(pending) > 0 {
			v = max(v, minStart(pending))
		}
	}
	return order
}

// idealWF2QOrder computes the exact WF²Q+ schedule of the instance from
// its definition, with no PIEO list: at virtual time V, transmit the
// pending item with the smallest finish among those whose start is at
// most V, equal finishes in enqueue order.
func idealWF2QOrder(items []pifo.Item) []string {
	return wf2qOrder(items, func(v uint64, pending []pifo.Item) (uint32, bool) {
		best := -1
		for i, it := range pending {
			if it.Start <= v && (best < 0 || it.Finish < pending[best].Finish) {
				best = i
			}
		}
		if best < 0 {
			return 0, false
		}
		return pending[best].ID, true
	})
}

// pieoWF2QOrder schedules the instance through a PIEO list: rank =
// finish, send_time = start, dequeue at the current virtual time.
func pieoWF2QOrder(items []pifo.Item) []string {
	list := core.New(len(items))
	for _, it := range items {
		if err := list.Enqueue(core.Entry{ID: it.ID, Rank: it.Finish, SendTime: clock.Time(it.Start)}); err != nil {
			panic(err)
		}
	}
	return wf2qOrder(items, func(v uint64, _ []pifo.Item) (uint32, bool) {
		e, ok := list.Dequeue(clock.Time(v))
		return e.ID, ok
	})
}

// emulatedOrder schedules the instance through a PIFO-based emulator.
func emulatedOrder(items []pifo.Item, em pifo.Emulator) []string {
	return wf2qOrder(items, func(v uint64, _ []pifo.Item) (uint32, bool) {
		it, ok := em.Schedule(v)
		return it.ID, ok
	})
}

// Fig2 reproduces Fig 2(c)-(e): the ideal WF²Q+ scheduling order (which
// PIEO produces exactly) against the three PIFO-based emulations, with
// the order-deviation metric for each.
func Fig2() *Table {
	items := fig2Instance()
	ideal := idealWF2QOrder(items)
	pieo := pieoWF2QOrder(items)
	maxDev, meanDev := stats.OrderDeviation(ideal, pieo)

	rows := [][]string{
		{"PIEO (ideal WF2Q+)", strings.Join(pieo, " "), fmt.Sprintf("%d", maxDev), fmt.Sprintf("%.2f", meanDev)},
	}
	for _, run := range []struct {
		name string
		em   pifo.Emulator
	}{
		{"single PIFO by finish", pifo.NewSingleByFinish(items)},
		{"single PIFO by start", pifo.NewSingleByStart(items)},
		{"two PIFOs (elig+rank)", pifo.NewTwoPIFO(items)},
	} {
		order := emulatedOrder(items, run.em)
		maxDev, meanDev := stats.OrderDeviation(ideal, order)
		rows = append(rows, []string{
			run.name, strings.Join(order, " "),
			fmt.Sprintf("%d", maxDev), fmt.Sprintf("%.2f", meanDev),
		})
	}
	return &Table{
		ID:      "fig2",
		Title:   "WF2Q+ scheduling order: PIEO vs PIFO emulations (Fig 2c-e)",
		Columns: []string{"scheduler", "order", "max-dev", "mean-dev"},
		Rows:    rows,
		Notes: []string{
			"instance mirrors the Fig 2(b) narrative; exact figure values are not machine-readable (see EXPERIMENTS.md)",
			"every PIFO emulation deviates from the ideal order; PIEO reproduces it exactly",
		},
	}
}
