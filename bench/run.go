package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// config selects what one invocation runs.
type config struct {
	workloads []*workload
	seed      uint64
	seconds   float64 // timed seconds per workload and pass; 0 = `reps` reps
	reps      int     // repetitions per workload when no time budget is given
	untraced  bool    // run the untraced pass (end-to-end metrics)
	traced    bool    // run the traced pass (per-layer metrics)
	scale     float64 // multiplies packet counts; 1 outside tests
	outDir    string  // where results.json and trace_*.json go
}

// repResult is one repetition: its timings plus what the instance
// reported.
type repResult struct {
	outcome
	setupS  float64
	wallNs  int64
	cpuNs   int64
	blocks  []int64 // ns per block, all workers pooled
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
	heapMB  float64
	tracers []*tracer
}

func (r *repResult) pktsPerS() float64    { return float64(r.packets) / (float64(r.wallNs) / 1e9) }
func (r *repResult) cpuNsPerPkt() float64 { return float64(r.cpuNs) / float64(r.packets) }

func scaled(n int, scale float64, block int) int {
	n = int(float64(n) * scale)
	if n < 2*block {
		n = 2 * block
	}
	return n
}

// runRep builds a fresh instance, warms it, times its fixed packet
// count, and runs the correctness gate.
func runRep(w *workload, cfg *config, cost *spanCost) (*repResult, error) {
	p := params{
		seed:    cfg.seed,
		packets: scaled(w.packets, cfg.scale, w.block),
		warm:    scaled(w.warm, cfg.scale, w.block),
		block:   w.block,
	}
	res := &repResult{}
	if cost != nil {
		for i := 0; i < w.workers; i++ {
			res.tracers = append(res.tracers, newTracer(w.listLayer, w.schedLayer, *cost))
		}
		p.tracers = res.tracers
	}

	setupStart := time.Now()
	inst := w.build(p)
	inst.warmUp()
	// Start every timed region from the same collector state.
	runtime.GC()
	res.setupS = time.Since(setupStart).Seconds()

	clocks := make([]*blockClock, w.workers)
	for i := range clocks {
		clocks[i] = newBlockClock(w.block, p.packets)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuNow(), time.Now()
	inst.run(clocks)
	res.wallNs, res.cpuNs = int64(time.Since(t0)), cpuNow()-cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs, res.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	res.gcs, res.pauseNs = ms1.NumGC-ms0.NumGC, ms1.PauseTotalNs-ms0.PauseTotalNs
	res.heapMB = liveHeapMB()

	out, err := inst.finish()
	runtime.KeepAlive(inst)
	if err != nil {
		return nil, err
	}
	res.outcome = out
	for _, c := range clocks {
		res.blocks = append(res.blocks, c.durs...)
	}
	if err := checkRep(w, res, cfg.scale >= 1); err != nil {
		return nil, err
	}
	return res, nil
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name       string             `json:"name"`
	Packets    int64              `json:"packets_per_rep"`
	Warm       int                `json:"warmup_packets"`
	Block      int                `json:"block_packets"`
	Workers    int                `json:"workers"`
	Timeshared bool               `json:"timeshared"`
	Digest     string             `json:"schedule_digest,omitempty"`
	Reps       int                `json:"reps,omitempty"`
	Blocks     int                `json:"blocks,omitempty"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	// Extra holds what the end-to-end list cannot (values that may be 0).
	Extra      map[string]float64   `json:"extra,omitempty"`
	PerRep     map[string][]float64 `json:"per_rep,omitempty"`
	TracedReps int                  `json:"traced_reps,omitempty"`
	PerLayer   map[string]float64   `json:"per_layer,omitempty"`

	untraced, refs, tracedReps []*repResult
}

// timedSeconds sums the timed regions of reps.
func timedSeconds(groups ...[]*repResult) float64 {
	var ns int64
	for _, reps := range groups {
		for _, r := range reps {
			ns += r.wallNs
		}
	}
	return float64(ns) / 1e9
}

// enough reports whether a pass over one workload is done after n reps
// and `timed` seconds of timed region: `fixed` reps without a time
// budget; with one, the budget spent and at least `floor` reps.
func (cfg *config) enough(n, fixed, floor int, timed float64) bool {
	if cfg.seconds <= 0 {
		return n >= fixed
	}
	return n >= floor && timed >= cfg.seconds
}

// roundRobin interleaves reps across workloads — rep 1 of each, then
// rep 2 of each — so a noisy period on a shared host costs one rep of
// every workload, not all reps of one. step runs one rep of a workload,
// or reports that the workload needs no more.
func (cfg *config) roundRobin(step func(w *workload, res *workloadResult) (ran bool, err error), results []*workloadResult) error {
	for ranAny := true; ranAny; {
		ranAny = false
		for i, w := range cfg.workloads {
			ran, err := step(w, results[i])
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			ranAny = ranAny || ran
		}
	}
	return nil
}

// runAll executes the passes and reduces their reps.
func runAll(cfg *config) ([]*workloadResult, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	results := make([]*workloadResult, len(cfg.workloads))
	for i, w := range cfg.workloads {
		if w.replay != nil {
			if err := w.replay(cfg.seed); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		results[i] = &workloadResult{
			Name: w.name, Warm: scaled(w.warm, cfg.scale, w.block), Block: w.block, Workers: w.workers,
			Timeshared: runtime.NumCPU() < w.workers,
		}
	}

	if cfg.untraced {
		// At least three reps under a budget: a quartile needs them.
		err := cfg.roundRobin(func(w *workload, res *workloadResult) (bool, error) {
			if cfg.enough(len(res.untraced), cfg.reps, 3, timedSeconds(res.untraced)) {
				return false, nil
			}
			r, err := runRep(w, cfg, nil)
			if err != nil {
				return true, err
			}
			res.untraced = append(res.untraced, r)
			return true, nil
		}, results)
		if err != nil {
			return nil, err
		}
	}

	if cfg.traced {
		cost := calibrateSpanCost()
		// The unit is a pair: each traced rep runs beside an untraced
		// one of the same seed, whose digest proves the wrappers changed
		// nothing and whose timing prices them. One pair will do; under
		// a budget the pairs share it, so that a traced run takes no
		// longer than an untraced one.
		err := cfg.roundRobin(func(w *workload, res *workloadResult) (bool, error) {
			if cfg.enough(len(res.tracedReps), 1, 1, timedSeconds(res.refs, res.tracedReps)) {
				return false, nil
			}
			ref, err := runRep(w, cfg, nil)
			if err != nil {
				return true, err
			}
			tr, err := runRep(w, cfg, &cost)
			if err != nil {
				return true, fmt.Errorf("traced: %w", err)
			}
			res.refs = append(res.refs, ref)
			res.tracedReps = append(res.tracedReps, tr)
			return true, nil
		}, results)
		if err != nil {
			return nil, err
		}
	}

	for i, w := range cfg.workloads {
		if err := results[i].reduce(w, cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return results, nil
}

// reduce checks the reps against each other and turns them into the
// reported medians.
func (res *workloadResult) reduce(w *workload, cfg *config) error {
	all := append(append(append([]*repResult(nil), res.untraced...), res.refs...), res.tracedReps...)
	if err := checkAcrossReps(w, all); err != nil {
		return err
	}
	res.Packets = all[0].packets
	if all[0].hasDigest {
		res.Digest = fmt.Sprintf("%016x", all[0].digest)
	}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}

	if reps := res.untraced; len(reps) > 0 {
		res.Reps = len(reps)
		for _, r := range reps {
			res.Blocks += len(r.blocks)
		}
		per := func(f func(*repResult) float64) []float64 {
			xs := make([]float64, len(reps))
			for i, r := range reps {
				xs[i] = f(r)
			}
			return xs
		}
		res.PerRep = map[string][]float64{
			"pkts_per_s":     per((*repResult).pktsPerS),
			"cpu_ns_per_pkt": per((*repResult).cpuNsPerPkt),
			"heap_mb":        per(func(r *repResult) float64 { return r.heapMB }),
			"setup_s":        per(func(r *repResult) float64 { return r.setupS }),
			"allocs_per_pkt": per(func(r *repResult) float64 { return float64(r.mallocs) / float64(r.packets) }),
		}
		res.EndToEnd = endToEndValues(res.PerRep)
		res.Extra = map[string]float64{
			"pkts_per_s_median":     median(res.PerRep["pkts_per_s"]),
			"cpu_ns_per_pkt_median": median(res.PerRep["cpu_ns_per_pkt"]),
			"setup_s_median":        median(res.PerRep["setup_s"]),
			"block_ns_per_pkt_p50":  quantile(blockNsPerPkt(reps, w.block), 0.5),
			"allocs_per_pkt":        median(res.PerRep["allocs_per_pkt"]),
			"failed_share":          float64(res.Failed) / float64(res.Attempted),
			"rep_spread_pct":        spreadPct(res.PerRep["pkts_per_s"]),
		}
		if !math.IsNaN(reps[0].rateErr) {
			res.Extra["rate_error_pct"] = reps[0].rateErr
		}
	}

	if n := len(res.tracedReps); n > 0 {
		res.TracedReps = n
		perRep := make([]map[string]float64, n)
		nsPerPkt := make([]float64, n)
		for i, tr := range res.tracedReps {
			perRep[i] = layerValues(w, res.refs[i], tr)
			nsPerPkt[i] = float64(tr.wallNs) / float64(tr.packets)
		}
		res.PerLayer = make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			xs := make([]float64, n)
			for i := range perRep {
				xs[i] = perRep[i][d.Name]
			}
			res.PerLayer[d.Name] = median(xs)
		}
		res.PerLayer["driver.rep_spread_pct"] = spreadPct(nsPerPkt)
		if u := res.PerLayer["driver.unattributed_share"]; u > 0.02 {
			return fmt.Errorf("per-layer self times leave %.1f%% of the traced time unattributed (limit 2%%)", 100*u)
		}
		if err := writeChromeTrace(fmt.Sprintf("%s/trace_%s.json", cfg.outDir, w.name), res.tracedReps[0].tracers); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
