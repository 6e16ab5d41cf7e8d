package experiments

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"pieo/internal/approx"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/stats"
)

// Approx quantifies §2.3's claim about approximate datastructures
// ("multi-priority fifo queue, calendar queue, timing wheel"): they
// scale, but only express approximate versions of scheduling algorithms,
// and their quality hinges on configuration parameters that are not
// trivial to tune. Three measurements against the exact PIEO list:
//
//  1. rank-order deviation of a multi-priority FIFO as the band count
//     varies,
//  2. rank-order deviation of a calendar queue as the bucket width
//     varies (including the year-collision cliff),
//  3. pacing-release error of a timing wheel as the slot size varies.
func Approx() *Table {
	entries, rng := approxWorkload()
	n := len(entries)
	ideal := entryIDs(rankOrder(entries))
	pieoDev, pieoMean := stats.OrderDeviation(ideal, entryIDs(pieoDrain(entries)))

	t := &Table{
		ID:      "approx",
		Title:   "Approximate datastructures vs exact PIEO (§2.3)",
		Columns: []string{"structure", "configuration", "max order dev", "mean order dev", "note"},
	}
	t.Rows = append(t.Rows, []string{"PIEO ordered list", fmt.Sprintf("N=%d (exact)", n),
		fmt.Sprintf("%d", pieoDev), fmt.Sprintf("%.2f", pieoMean), "reference"})

	for _, k := range []int{4, 16, 64, 256, 1024} {
		maxDev, meanDev := stats.OrderDeviation(ideal, entryIDs(bandDrain(entries, k)))
		t.Rows = append(t.Rows, []string{
			"multi-priority FIFO", fmt.Sprintf("%d bands", k),
			fmt.Sprintf("%d", maxDev), fmt.Sprintf("%.1f", meanDev),
			fmt.Sprintf("%d flip-flop FIFOs", k),
		})
	}

	for _, width := range []uint64{16, 64, 256, 2048} {
		buckets := 64
		c := approx.NewCalendarQueue(buckets, width)
		for _, e := range entries {
			c.Enqueue(e)
		}
		maxDev, meanDev := stats.OrderDeviation(ideal, entryIDs(drain(c.Dequeue)))
		note := ""
		if uint64(buckets)*width < 1<<16 {
			note = "year < rank space: collisions"
		}
		t.Rows = append(t.Rows, []string{
			"calendar queue", fmt.Sprintf("64 buckets x %d", width),
			fmt.Sprintf("%d", maxDev), fmt.Sprintf("%.1f", meanDev), note,
		})
	}

	for _, slot := range []clock.Time{32, 256, 2048} {
		w := approx.NewTimingWheel(4096, slot)
		maxErr := clock.Time(0)
		var totalErr uint64
		count := 0
		for _, e := range entries {
			send := clock.Time(rng.Intn(1 << 16))
			w.Enqueue(core.Entry{ID: e.ID, Rank: e.Rank, SendTime: send})
		}
		for now := clock.Time(0); count < n; now += slot {
			for {
				e, ok := w.Dequeue(now)
				if !ok {
					break
				}
				// Early-release error: how far before its send time the
				// wheel made the element available.
				if e.SendTime > now {
					err := e.SendTime - now
					if err > maxErr {
						maxErr = err
					}
					totalErr += uint64(err)
				}
				count++
			}
		}
		t.Rows = append(t.Rows, []string{
			"timing wheel", fmt.Sprintf("slot %d ns", slot),
			fmt.Sprintf("%d ns early", maxErr),
			fmt.Sprintf("%.1f ns mean", float64(totalErr)/float64(n)),
			"pacing granularity",
		})
	}
	t.Notes = []string{
		"PIEO needs no tuning and is exact in both rank order and release time",
		"every approximation trades a configuration parameter (bands/width/slot) against error",
	}
	return t
}

// approxWorkload draws the table's 2048 entries, ranks uniform in
// [0, 2^16) and all eligible, and returns the generator positioned after
// them, where the timing wheel's send times come from.
func approxWorkload() ([]core.Entry, *rand.Rand) {
	rng := rand.New(rand.NewSource(17))
	entries := make([]core.Entry, 2048)
	for i := range entries {
		entries[i] = core.Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16)), SendTime: clock.Always}
	}
	return entries, rng
}

// rankOrder is the exact order by definition, with no PIEO list: the
// entries stably sorted by rank, equal ranks in enqueue order.
func rankOrder(entries []core.Entry) []core.Entry {
	out := slices.Clone(entries)
	slices.SortStableFunc(out, func(a, b core.Entry) int { return cmp.Compare(a.Rank, b.Rank) })
	return out
}

// pieoDrain enqueues the entries into a PIEO list and drains it at
// clock.Always, when every entry is eligible.
func pieoDrain(entries []core.Entry) []core.Entry {
	l := core.New(len(entries))
	for _, e := range entries {
		if err := l.Enqueue(e); err != nil {
			panic(err)
		}
	}
	return drain(func() (core.Entry, bool) { return l.Dequeue(clock.Always) })
}

// bandDrain enqueues the entries into a multi-priority FIFO of k bands,
// rank buckets of width 2^16/k, and drains it.
func bandDrain(entries []core.Entry, k int) []core.Entry {
	m := approx.NewMultiPriorityFIFO(k, 1<<16)
	for _, e := range entries {
		m.Enqueue(e)
	}
	return drain(m.Dequeue)
}

// drain calls dequeue until it reports empty and returns what it gave.
func drain(dequeue func() (core.Entry, bool)) []core.Entry {
	var out []core.Entry
	for e, ok := dequeue(); ok; e, ok = dequeue() {
		out = append(out, e)
	}
	return out
}

// entryIDs renders a drain as ID strings for stats.OrderDeviation.
func entryIDs(es []core.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%d", e.ID)
	}
	return out
}
