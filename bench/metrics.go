package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it; bench_test.go
// holds the two lists equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off. Bound is the share of the
// parent's median by which the metric may worsen before a change is a
// regression.
var endToEnd = []metricDef{
	{"pkts_per_s", "packets/s", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer come from the traced pass (and its untraced reference rep
// for the runtime.* and block figures). A metric of a layer a workload
// does not use reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}

	for _, op := range []string{"decode", "classify"} {
		add("wire."+op+".calls_per_pkt", "count", "lower")
		add("wire."+op+".ns_per_call", "ns", "lower")
	}
	add("wire.self_ns_per_pkt", "ns", "lower")
	add("wire.errors", "count", "lower")

	add("netsim.self_ns_per_pkt", "ns", "lower")
	add("netsim.self_share", "ratio", "lower")
	add("netsim.utilization", "ratio", "higher")
	add("netsim.run.calls", "count", "lower")

	for _, l := range []string{"sched", "hier"} {
		for _, op := range schedOps {
			add(l+"."+op.name+".calls_per_pkt", "count", "lower")
			add(l+"."+op.name+".self_ns_per_call", "ns", "lower")
		}
		add(l+".next_packet.empty_share", "ratio", "lower")
		add(l+".self_ns_per_pkt", "ns", "lower")
		add(l+".self_share", "ratio", "lower")
		add(l+".backend_ops_per_pkt", "count", "lower")
		add(l+".drops", "count", "lower")
	}

	for _, op := range listOps {
		add("core."+op.name+".calls_per_pkt", "count", "lower")
		add("core."+op.name+".ns_per_call", "ns", "lower")
	}
	add("core.dequeue.empty_share", "ratio", "lower")
	add("core.dequeue_range.empty_share", "ratio", "lower")
	add("core.self_ns_per_pkt", "ns", "lower")
	add("core.self_share", "ratio", "lower")
	add("core.hw_cycles_per_op", "cycles", "lower")
	add("core.sram_reads_per_op", "count", "lower")
	add("core.sram_writes_per_op", "count", "lower")
	add("core.elem_compares_per_op", "count", "lower")

	add("shard.enqueue.ns_per_call", "ns", "lower")
	add("shard.dequeue.ns_per_call", "ns", "lower")
	add("shard.enqueue.retry_share", "ratio", "lower")
	add("shard.dequeue.retry_share", "ratio", "lower")
	add("shard.ring_ops_share", "ratio", "lower")
	add("shard.combined_ops_share", "ratio", "higher")
	add("shard.combiner_drains", "count", "higher")
	add("shard.inversions_per_mpkt", "1/Mpkt", "lower")
	add("shard.cpu_busy_share", "ratio", "higher")
	add("shard.self_ns_per_pkt", "ns", "lower")
	add("shard.block_ns_per_pkt_p50", "ns", "lower")
	add("shard.block_ns_per_pkt_p99", "ns", "lower")
	add("shard.lost_entries", "count", "lower")
	add("shard.quarantines", "count", "lower")

	add("driver.self_ns_per_pkt", "ns", "lower")
	add("driver.self_share", "ratio", "lower")
	add("driver.unattributed_share", "ratio", "lower")
	add("driver.block_ns_per_pkt_p50", "ns", "lower")
	add("driver.block_ns_per_pkt_p90", "ns", "lower")
	add("driver.block_ns_per_pkt_p99", "ns", "lower")
	add("driver.blocks", "count", "higher")
	add("driver.rep_spread_pct", "%", "lower")
	add("driver.trace_overhead_pct", "%", "lower")
	add("driver.span_cost_ns", "ns", "lower")
	add("driver.spans", "count", "lower")
	// Process CPU (getrusage) per packet, Eiffel's cost measure. It is
	// not an end-to-end metric because CPU ÷ wall is a constant of each
	// workload (1.0 single-threaded, ~1.2 on contended_sharded, where
	// it is shard.cpu_busy_share x workers), so it repeats pkts_per_s —
	// with twice the spread on the one workload where it could differ.
	add("driver.cpu_ns_per_pkt", "ns", "lower")
	// The contract allows no end-to-end metric that can read 0, so
	// these three are reported here and gated by the correctness check
	// (rate error, failures) or by time (allocations).
	add("driver.rate_error_pct", "%", "lower")
	add("driver.failed_share", "ratio", "lower")
	add("runtime.allocs_per_pkt", "count", "lower")

	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_pause_ns_per_pkt", "ns", "lower")
	add("runtime.bytes_per_pkt", "bytes", "lower")
	return defs
}

// blockNsPerPkt converts pooled block durations to sorted ns/packet.
func blockNsPerPkt(reps []*repResult, block int) []float64 {
	var out []float64
	for _, r := range reps {
		for _, d := range r.blocks {
			out = append(out, float64(d)/float64(block))
		}
	}
	sort.Float64s(out)
	return out
}

// endToEndValues reduces a workload's per-rep values to its end-to-end
// metrics. Interference on a shared host only ever slows a rep, and
// arrives in spells longer than a rep (README, "Spreads"), so each
// host-time metric reports the quartile of the reps on the undisturbed
// side — a quarter of the reps read better, three quarters worse — which
// holds still until three quarters of a run are disturbed, where a
// median gives way at half. Memory does not depend on the host: median.
func endToEndValues(perRep map[string][]float64) map[string]float64 {
	return map[string]float64{
		"pkts_per_s": quantileOf(perRep["pkts_per_s"], 0.75),
		"heap_mb":    quantileOf(perRep["heap_mb"], 0.5),
		"setup_s":    quantileOf(perRep["setup_s"], 0.25),
	}
}

// layerValues computes every per-layer metric of one traced rep. ref is
// the untraced rep of the same workload and seed that ran beside it.
func layerValues(w *workload, ref, tr *repResult) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	for k, x := range tr.layer {
		v[k] = x
	}
	pk := float64(tr.packets)

	// Sum the workers' tracers: times become worker-time per packet.
	var agg [nKinds]spanAgg
	var spans, traced int64
	cost := tr.tracers[0].cost
	for _, t := range tr.tracers {
		for k := range agg {
			agg[k].calls += t.final[k].calls
			agg[k].total += t.final[k].total
			agg[k].self += t.final[k].self
			agg[k].empty += t.final[k].empty
		}
		spans += t.finalSpans
		traced += t.final[kDriver].total
	}
	self := func(ks ...kind) float64 {
		var s int64
		for _, k := range ks {
			s += agg[k].self
		}
		return math.Max(0, float64(s))
	}
	perCall := func(ns int64, k kind) float64 {
		if agg[k].calls == 0 {
			return 0
		}
		return float64(ns) / float64(agg[k].calls)
	}
	share := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}

	listKinds := make([]kind, len(listOps))
	var listCalls int64
	for i, op := range listOps {
		listKinds[i] = op.k
		listCalls += agg[op.k].calls
	}
	layerSelf := map[string]float64{
		"wire":      self(kDecode, kClassify),
		"netsim":    self(kSimRun, kInject),
		w.listLayer: self(listKinds...),
		"driver":    self(kDriver, kCallback),
	}
	if w.schedLayer != "" {
		layerSelf[w.schedLayer] = self(kOnArrival, kNextPacket, kNextWake)
	}
	var attributed float64
	for _, s := range layerSelf {
		attributed += s
	}
	for l, s := range layerSelf {
		v[l+".self_ns_per_pkt"] = s / pk
		if _, ok := v[l+".self_share"]; ok {
			v[l+".self_share"] = s / attributed
		}
	}

	v["wire.decode.calls_per_pkt"] = float64(agg[kDecode].calls) / pk
	v["wire.decode.ns_per_call"] = perCall(agg[kDecode].total, kDecode)
	v["wire.classify.calls_per_pkt"] = float64(agg[kClassify].calls) / pk
	v["wire.classify.ns_per_call"] = perCall(agg[kClassify].total, kClassify)

	if l := w.schedLayer; l != "" {
		for _, op := range schedOps {
			v[l+"."+op.name+".calls_per_pkt"] = float64(agg[op.k].calls) / pk
			v[l+"."+op.name+".self_ns_per_call"] = perCall(agg[op.k].self, op.k)
		}
		v[l+".next_packet.empty_share"] = share(agg[kNextPacket].empty, agg[kNextPacket].calls)
		v[l+".backend_ops_per_pkt"] = float64(listCalls) / pk
	}

	switch w.listLayer {
	case "core":
		for _, op := range listOps {
			v["core."+op.name+".calls_per_pkt"] = float64(agg[op.k].calls) / pk
			v["core."+op.name+".ns_per_call"] = perCall(agg[op.k].total, op.k)
		}
		v["core.dequeue.empty_share"] = share(agg[kDequeue].empty, agg[kDequeue].calls)
		v["core.dequeue_range.empty_share"] = share(agg[kDequeueRange].empty, agg[kDequeueRange].calls)
	case "shard":
		v["shard.enqueue.ns_per_call"] = perCall(agg[kEnqueue].total, kEnqueue)
		v["shard.dequeue.ns_per_call"] = perCall(agg[kDequeue].total, kDequeue)
		blocks := blockNsPerPkt([]*repResult{ref}, w.block)
		v["shard.block_ns_per_pkt_p50"] = quantile(blocks, 0.5)
		v["shard.block_ns_per_pkt_p99"] = quantile(blocks, 0.99)
	}

	// The ladder must sum to the whole: layers' self times plus what
	// the spans themselves cost, against the traced region's duration.
	overhead := float64(spans * (cost.inside + cost.outside))
	v["driver.unattributed_share"] = math.Abs(float64(traced)-attributed-overhead) / float64(traced)
	v["driver.span_cost_ns"] = float64(cost.inside + cost.outside)
	v["driver.spans"] = float64(spans)
	workerNsPerPkt := func(r *repResult) float64 { return float64(r.wallNs) * float64(w.workers) / float64(r.packets) }
	v["driver.trace_overhead_pct"] = 100 * (workerNsPerPkt(tr)/workerNsPerPkt(ref) - 1)

	// Untraced reference rep: the cost distribution and the runtime's
	// share, undisturbed by spans and their buffers.
	blocks := blockNsPerPkt([]*repResult{ref}, w.block)
	v["driver.block_ns_per_pkt_p50"] = quantile(blocks, 0.5)
	v["driver.block_ns_per_pkt_p90"] = quantile(blocks, 0.9)
	v["driver.block_ns_per_pkt_p99"] = quantile(blocks, 0.99)
	v["driver.blocks"] = float64(len(blocks))
	if !math.IsNaN(ref.rateErr) {
		v["driver.rate_error_pct"] = ref.rateErr
	}
	v["driver.failed_share"] = float64(ref.failed) / float64(ref.attempted)
	v["driver.cpu_ns_per_pkt"] = ref.cpuNsPerPkt()
	rpk := float64(ref.packets)
	v["runtime.allocs_per_pkt"] = float64(ref.mallocs) / rpk
	v["runtime.bytes_per_pkt"] = float64(ref.bytes) / rpk
	v["runtime.gc_cycles"] = float64(ref.gcs)
	v["runtime.gc_pause_ns_per_pkt"] = float64(ref.pauseNs) / rpk
	return v
}
