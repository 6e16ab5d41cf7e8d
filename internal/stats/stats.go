// Package stats implements the measurement instruments used by the
// evaluation harness: byte-rate meters and interval series (Fig 11),
// Jain's fairness index over per-flow throughputs (Fig 12), basic summary
// statistics, and the scheduling-order deviation metric used to quantify
// the §2.3 claim that PIFO-based WF²Q+ emulation can deviate O(N) from the
// ideal order.
package stats

import (
	"fmt"
	"math"
	"sort"

	"pieo/internal/clock"
)

// RateMeter accumulates transmitted bytes and converts them to a rate over
// the observed window. Time is in simulated nanoseconds, so rates come out
// in Gbps via bits/ns.
type RateMeter struct {
	start   clock.Time
	end     clock.Time
	bytes   uint64
	packets uint64
	started bool
}

// NewRateMeter returns a meter whose window opens at start.
func NewRateMeter(start clock.Time) *RateMeter {
	return &RateMeter{start: start, end: start, started: true}
}

// Record notes that size bytes finished transmitting at instant t.
func (m *RateMeter) Record(t clock.Time, size uint32) {
	if !m.started {
		m.start = t
		m.started = true
	}
	if t > m.end {
		m.end = t
	}
	m.bytes += uint64(size)
	m.packets++
}

// Bytes returns the total bytes recorded.
func (m *RateMeter) Bytes() uint64 { return m.bytes }

// Packets returns the total packets recorded.
func (m *RateMeter) Packets() uint64 { return m.packets }

// CloseAt extends the measurement window to t, so idle tail time counts
// against the rate.
func (m *RateMeter) CloseAt(t clock.Time) {
	if t > m.end {
		m.end = t
	}
}

// Gbps returns the average rate over the window in gigabits per second,
// assuming the clock ticks in nanoseconds.
func (m *RateMeter) Gbps() float64 {
	dur := float64(m.end - m.start)
	if dur <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / dur // bits per ns == Gbps
}

// JainIndex computes Jain's fairness index over the given allocations:
// (Σx)² / (n·Σx²). It is 1.0 for perfectly equal shares and approaches
// 1/n as one allocation dominates. Returns 0 for empty or all-zero input.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Summary holds basic descriptive statistics.
type Summary struct {
	N              int
	Min, Max, Mean float64
	Stddev         float64
	P50, P95, P99  float64
}

// Summarize computes a Summary of xs. It returns the zero Summary for
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	var ss float64
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	pct := func(p float64) float64 {
		idx := int(math.Ceil(p*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx]
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Stddev: math.Sqrt(ss / float64(len(sorted))),
		P50:    pct(0.50),
		P95:    pct(0.95),
		P99:    pct(0.99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f stddev=%.3f",
		s.N, s.Min, s.Mean, s.P50, s.P95, s.P99, s.Max, s.Stddev)
}

// OrderDeviation quantifies how far a measured scheduling order strays
// from an ideal order. For each element it computes |position in got −
// position in want| and returns the maximum and mean displacement. The
// two orders must hold the same elements: a duplicate ideal ID, a length
// mismatch or an element present in only one order panics, so a drain
// that loses, invents or repeats an element cannot read as exact. This
// is the metric behind the §2.3 claim that two-PIFO WF²Q+ emulation can
// deviate O(N).
func OrderDeviation(want, got []string) (maxDev int, meanDev float64) {
	if len(want) != len(got) {
		panic(fmt.Sprintf("stats: ideal order has %d elements, measured %d", len(want), len(got)))
	}
	wantPos := make(map[string]int, len(want))
	for i, id := range want {
		if _, dup := wantPos[id]; dup {
			panic(fmt.Sprintf("stats: duplicate id %q in ideal order", id))
		}
		wantPos[id] = i
	}
	total := 0
	for i, id := range got {
		w, ok := wantPos[id]
		if !ok {
			panic(fmt.Sprintf("stats: measured order holds %q, which the ideal order lacks", id))
		}
		// With equal lengths, got misses an ideal ID only by repeating
		// another, so marking each one met catches both.
		wantPos[id] = -1
		if w < 0 {
			panic(fmt.Sprintf("stats: measured order repeats %q", id))
		}
		d := i - w
		if d < 0 {
			d = -d
		}
		if d > maxDev {
			maxDev = d
		}
		total += d
	}
	if len(got) > 0 {
		meanDev = float64(total) / float64(len(got))
	}
	return maxDev, meanDev
}
