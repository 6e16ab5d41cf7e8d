package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// smokeResults runs all five workloads, untraced and traced, at 1/100
// of their packet counts. Every correctness check runs exactly as in a
// full run; only the timings are meaningless.
func smokeResults(t *testing.T) (*config, []*workloadResult) {
	t.Helper()
	cfg := &config{seed: 7, reps: 1, scale: 0.01, untraced: true, traced: true, outDir: t.TempDir()}
	for i := range workloads {
		cfg.workloads = append(cfg.workloads, &workloads[i])
	}
	results, err := runAll(cfg)
	if err != nil {
		t.Fatalf("a correctness check failed: %v", err)
	}
	return cfg, results
}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	var d declared
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmokeAndSchema is the schema-drift guard: what the program emits
// and what BENCHMARK.json declares must be the same sets, with the same
// units, directions and bounds.
func TestSmokeAndSchema(t *testing.T) {
	cfg, results := smokeResults(t)
	d := readDeclared(t)

	if len(d.Workloads) != len(results) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program ran %d", len(d.Workloads), len(results))
	}
	for i, res := range results {
		w := cfg.workloads[i]
		if d.Workloads[i].Name != res.Name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q",
				i, d.Workloads[i].Name, d.Workloads[i].Why, res.Name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if got, want := sortedKeys(res.EndToEnd), names(endToEnd); !slices.Equal(got, want) {
			t.Errorf("%s: end-to-end metrics emitted %v, defined %v", res.Name, got, want)
		}
		if got, want := sortedKeys(res.PerLayer), names(perLayer); !slices.Equal(got, want) {
			t.Errorf("%s: per-layer metrics emitted %v, defined %v", res.Name, got, want)
		}
		for name, v := range res.EndToEnd {
			if !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Name, name, v)
			}
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", res.Name, res.Failed, res.Attempted)
		}
		if (res.Digest == "") != (w.workers > 1) {
			t.Errorf("%s: schedule digest %q with %d workers", res.Name, res.Digest, w.workers)
		}
		if u := res.PerLayer["driver.unattributed_share"]; u > 0.02 {
			t.Errorf("%s: %.1f%% of traced time unattributed", res.Name, 100*u)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+res.Name+".json")); err != nil {
			t.Errorf("%s: no Chrome trace written: %v", res.Name, err)
		}
	}
	if !slices.Equal(d.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's list:\n%v\n%v", d.EndToEnd, endToEnd)
	}
	if !slices.Equal(d.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's list")
	}
	if len(d.Paths) != 1 || d.Paths[0] != "bench" || strings.Join(d.Command, " ") != "go run ./bench" {
		t.Errorf("BENCHMARK.json registers command %v over paths %v", d.Command, d.Paths)
	}

	// A layer a workload bypasses must read zero there, and do work
	// where it is used.
	byName := map[string]*workloadResult{}
	for _, res := range results {
		byName[res.Name] = res
	}
	for _, c := range []struct {
		workload, metric string
		used             bool
	}{
		{"nicpath_flat", "wire.decode.calls_per_pkt", true},
		{"nicpath_flat", "sched.next_packet.calls_per_pkt", true},
		{"nicpath_flat", "hier.next_packet.calls_per_pkt", false},
		{"hier_partitioned", "hier.next_packet.calls_per_pkt", true},
		{"hier_partitioned", "core.dequeue_range.calls_per_pkt", true},
		{"hier_partitioned", "sched.next_packet.calls_per_pkt", false},
		{"hier_partitioned", "wire.decode.calls_per_pkt", false},
		{"list_hold", "core.dequeue.calls_per_pkt", true},
		{"list_hold", "netsim.self_ns_per_pkt", false},
		{"paced_sparse", "core.next_wake_after.calls_per_pkt", true},
		{"paced_sparse", "core.dequeue.empty_share", true},
		{"contended_sharded", "shard.dequeue.ns_per_call", true},
		{"contended_sharded", "core.dequeue.calls_per_pkt", false},
	} {
		if v := byName[c.workload].PerLayer[c.metric]; (v > 0) != c.used {
			t.Errorf("%s: %s = %v, used = %v", c.workload, c.metric, v, c.used)
		}
	}
	if v := byName["list_hold"].PerLayer["core.hw_cycles_per_op"]; v != 4 {
		t.Errorf("list_hold: core.hw_cycles_per_op = %v, the paper's datapath takes 4", v)
	}
}

func TestDriverLine(t *testing.T) {
	args := mergeTraceArg([]string{"--workload", "list_hold", "--seed", "3", "--seconds", "10", "--trace", "1"})
	if got := strings.Join(args, " "); got != "--workload list_hold --seed 3 --seconds 10 --trace=1" {
		t.Fatalf("mergeTraceArg = %q", got)
	}
	var f traceFlag
	if err := f.Set("0"); err != nil || f {
		t.Fatalf("traceFlag.Set(0) = %v, %v", f, err)
	}
	if err := f.Set("2"); err == nil {
		t.Fatal("traceFlag accepted 2")
	}
}

func TestCompare(t *testing.T) {
	// -compare reads the bounds from BENCHMARK.json in the working
	// directory, which for the tool is the repository root.
	wd, _ := os.Getwd()
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	dir := t.TempDir()
	write := func(name string, rate float64) string {
		e2e := map[string]float64{"pkts_per_s": rate, "heap_mb": 10, "setup_s": 500 / rate}
		per := map[string][]float64{}
		for k, v := range e2e {
			per[k] = []float64{v, v, v}
		}
		data, err := json.Marshal(resultsFile{Workloads: []*workloadResult{
			{Name: "list_hold", EndToEnd: e2e, PerRep: per, Digest: "00"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("a.json", 1000), write("b.json", 1010), write("c.json", 500)

	var out bytes.Buffer
	if err := compareFiles(base, same, &out); err != nil {
		t.Fatalf("1%% apart: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "unchanged"); n != len(endToEnd) {
		t.Errorf("1%% apart: %d unchanged rows, want %d:\n%s", n, len(endToEnd), out.String())
	}
	out.Reset()
	if err := compareFiles(base, slow, &out); err == nil {
		t.Errorf("halved throughput not reported as a regression:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "regressed"); n != 2 {
		t.Errorf("halved throughput, doubled set-up: %d regressed rows, want 2:\n%s", n, out.String())
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ns", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.07}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v} }
	noisy := func(v float64) []float64 { return []float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2} }
	for _, c := range []struct {
		d            metricDef
		a, b         float64
		repsA, repsB []float64
		want         string
	}{
		{lower, 100, 103, steady(100), steady(103), "unchanged"},
		{lower, 100, 110, steady(100), steady(110), "regressed"},
		{lower, 100, 90, steady(100), steady(90), "better"},
		{higher, 100, 90, steady(100), steady(90), "regressed"},
		{higher, 100, 110, steady(100), steady(110), "better"},
		{lower, 100, 110, noisy(100), noisy(110), "unresolved"},
		{lower, 100, 50, noisy(100), noisy(50), "better"},
		{higher, 100, 50, noisy(100), noisy(50), "regressed"},
	} {
		if got := verdict(c.d, c.a, c.b, c.repsA, c.repsB); got != c.want {
			t.Errorf("%s-is-better %v -> %v: verdict %q, want %q", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}
