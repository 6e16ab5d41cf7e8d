package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/pktgen"
)

// pacingScaleSizes sweeps the paced-flow counts of the Carousel-style
// scenario: the paper's 30K operating point is long passed by the 100K
// step, and 1M is the Carousel/Eiffel scale the eligibility index
// exists for.
var pacingScaleSizes = []int{10_000, 100_000, 1_000_000}

// pacingScaleRounds returns how many wake→dispatch rounds each
// configuration runs. The default keeps the full sweep (sizes ×
// backends, × wheel on/off where a backend has both) in the seconds
// range; PIEO_PACING_ROUNDS overrides it
// for smoke runs or longer measurements.
func pacingScaleRounds() int {
	if s := os.Getenv("PIEO_PACING_ROUNDS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 10_000
}

// pacingScaleMaxFlows caps the sweep's largest size (PIEO_PACING_FLOWS),
// so CI smoke jobs can stop at 100K while the default reaches 1M.
func pacingScaleMaxFlows() int {
	if s := os.Getenv("PIEO_PACING_FLOWS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return pacingScaleSizes[len(pacingScaleSizes)-1]
}

// pacingScaleResult is one configuration's measurement.
type pacingScaleResult struct {
	dequeueNs float64 // mean ns per Dequeue call, hits and sparse misses
	wakeNs    float64 // mean ns per next-wake query
	roundNs   float64 // mean ns per wake→dispatch round (the headline)
	exactPct  float64 // % of wake hints that delivered exactly one due element
	dispatch  int     // packets dispatched
}

// pacingScaleMeasure runs the Carousel-style open-loop pacing scenario
// against a fresh backend: n flows, each shaped by a steady-state token
// bucket (bucket depth one packet, so release_k = release_{k-1} +
// size·8/rate — the §4.2 TokenBucket program's arithmetic with the
// bucket always empty), with pktgen supplying the packet sizes and
// per-flow rate-derived gaps. Release phases are spread uniformly so at
// any instant well under 1% of flows are eligible; the driver is the
// Carousel event loop — drain everything due now, ask the backend when
// the next release lands, jump the clock there, dispatch, re-arm.
// wheel=false calls DisableEligIndex first: a backend that keeps a
// timing wheel beside a scan fallback (cffs) then measures the fallback;
// on core, whose time index is the list's own metadata, it changes
// nothing.
func pacingScaleMeasure(name string, n int, wheel bool) pacingScaleResult {
	be, err := backend.New(name, n)
	if err != nil {
		panic(fmt.Sprintf("pacing: %v", err))
	}
	ix, _ := be.(backend.EligIndexed)
	if ix == nil {
		panic(fmt.Sprintf("pacing: backend %q has no eligibility index capability", name))
	}
	if !wheel {
		ix.DisableEligIndex()
	}

	rng := rand.New(rand.NewSource(7))
	sizes := &pktgen.BimodalSize{Small: 64, Large: 1500, FracSmall: 0.5, Rng: rand.New(rand.NewSource(8))}
	// Per-flow open-loop release clocks: the aggregate paced rate is the
	// line rate (Carousel's regime — admission control keeps the sum of
	// shaped rates at or under the link), so each flow's token-bucket
	// rate is ~lineGbps/n with a ±50% weight spread, and release density
	// in time is set by the LINK, not by the flow count (so a wheel's
	// elements per granule ≈ line packet rate × granule width,
	// independent of n). Phases spread across one full gap so releases
	// arrive one at a time.
	const lineGbps = 100.0
	gap := make([]clock.Time, n)
	next := make([]clock.Time, n)
	for i := 0; i < n; i++ {
		rate := lineGbps / float64(n) * (0.5 + rng.Float64())
		gap[i] = pktgen.GapForRate(rate, sizes.Next())
		next[i] = 1 + clock.Time(rng.Int63n(int64(gap[i])))
		if err := be.Enqueue(core.Entry{ID: uint32(i), Rank: uint64(next[i]), SendTime: next[i]}); err != nil {
			panic(fmt.Sprintf("pacing: fill: %v", err))
		}
	}

	var (
		res        pacingScaleResult
		now        clock.Time
		dqNs       time.Duration
		wkNs       time.Duration
		dqCalls    int
		exact      int
		inexact    int
		roundStart = time.Now()
	)
	rounds := pacingScaleRounds()
	for r := 0; r < rounds; r++ {
		// Drain everything due at now; the final call is the sparse-
		// eligibility miss.
		for {
			t0 := time.Now()
			ent, ok := be.Dequeue(now)
			dqNs += time.Since(t0)
			dqCalls++
			if !ok {
				break
			}
			res.dispatch++
			f := ent.ID
			next[f] += gap[f]
			if err := be.Enqueue(core.Entry{ID: f, Rank: uint64(next[f]), SendTime: next[f]}); err != nil {
				panic(fmt.Sprintf("pacing: re-arm: %v", err))
			}
		}
		t0 := time.Now()
		wake := ix.NextWakeAfter(now)
		wkNs += time.Since(t0)
		if wake == clock.Never {
			break
		}
		// Exactness: the index promised nothing in (now, wake) and at
		// least one release at wake. The next round's drain adjudicates.
		t0 = time.Now()
		ent, ok := be.Dequeue(wake)
		dqNs += time.Since(t0)
		dqCalls++
		if ok {
			exact++
			res.dispatch++
			f := ent.ID
			next[f] += gap[f]
			if err := be.Enqueue(core.Entry{ID: f, Rank: uint64(next[f]), SendTime: next[f]}); err != nil {
				panic(fmt.Sprintf("pacing: re-arm: %v", err))
			}
		} else {
			inexact++
		}
		now = wake
	}
	elapsed := time.Since(roundStart)

	res.dequeueNs = float64(dqNs.Nanoseconds()) / float64(dqCalls)
	res.wakeNs = float64(wkNs.Nanoseconds()) / float64(rounds)
	res.roundNs = float64(elapsed.Nanoseconds()) / float64(rounds)
	if exact+inexact > 0 {
		res.exactPct = 100 * float64(exact) / float64(exact+inexact)
	}
	return res
}

// pacingHasWheel reports whether the named backend keeps a timing wheel
// beside a scan fallback, which makes the wheel on/off pair a
// measurement of two paths: the cffs family. core and the engine over
// core shards answer from the Ordered-Sublist-Array's own summaries —
// one path, one row.
func pacingHasWheel(name string) bool { return strings.Contains(name, "cffs") }

// PacingScale is the Carousel-style scaling study behind the §1
// motivation at Eiffel/Carousel flow counts: 10K → 1M token-bucket-paced
// flows with sparse eligibility. The headline is the per-round cost
// growing far slower than the flow count and every wake hint being exact
// (a dispatch at precisely the promised instant — the "packets
// transmitted at precise times" requirement pacing protocols impose).
// Backends with a wheel and a scan fallback report both, with the
// wheel's speedup over the scan.
func PacingScale() *Table {
	maxFlows := pacingScaleMaxFlows()
	var rows [][]string
	row := func(name string, n int, index string, r pacingScaleResult, speedup string) {
		rows = append(rows, []string{
			name, sizeLabel(n), index,
			fmt.Sprintf("%.0f", r.dequeueNs),
			fmt.Sprintf("%.0f", r.wakeNs),
			fmt.Sprintf("%.0f", r.roundNs),
			fmt.Sprintf("%.1f", r.exactPct),
			speedup,
		})
	}
	for _, name := range Backends() {
		for _, n := range pacingScaleSizes {
			if n > maxFlows {
				continue
			}
			if !pacingHasWheel(name) {
				row(name, n, "summaries", pacingScaleMeasure(name, n, true), "-")
				continue
			}
			base := pacingScaleMeasure(name, n, false)
			whl := pacingScaleMeasure(name, n, true)
			row(name, n, "scan", base, "1.0")
			row(name, n, "wheel", whl, fmt.Sprintf("%.1f", base.roundNs/whl.roundNs))
		}
	}
	return &Table{
		ID:      "pacing",
		Title:   "Pacing at scale: Carousel-style wake/dispatch loop, 10K-1M token-bucket flows",
		Columns: []string{"backend", "flows", "elig index", "dequeue ns/op", "wake ns/op", "round ns", "exact %", "speedup"},
		Rows:    rows,
		Notes: []string{
			"open loop: each flow re-arms at prev release + size*8/rate (token bucket at steady state), <1% eligible at any instant",
			"wake ns/op is the next-release query; 'summaries' is the core list's pruned walk over its own eligibility metadata (one path)",
			"'wheel'/'scan' (cffs backends, -backend cffs) are the timing-wheel index and the same backend with it disabled; speedup is scan/wheel round ns",
			"exact % counts wake hints that delivered a due element at precisely the promised instant",
			"round ns is the whole wake->dispatch->re-arm iteration",
			"PIEO_PACING_ROUNDS / PIEO_PACING_FLOWS shrink the sweep for smoke runs",
		},
	}
}
