// Command bench is the repo's benchmark: five named workloads over the
// packet path, a fixed set of end-to-end metrics measured with tracing
// off, and a separate traced pass that times every layer from outside.
// BENCHMARK.json at the repo root registers it; README.md in this
// directory explains the workloads, metrics and protocol.
//
//	go run ./bench                       all workloads, 5 interleaved reps each
//	go run ./bench -trace                the same, then the traced pass
//	go run ./bench -compare a.json b.json
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   (driver form)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// traceFlag accepts -trace, -trace=1 and (after mergeTraceArg) the
// driver's "--trace 0|1".
type traceFlag bool

func (f *traceFlag) String() string   { return fmt.Sprint(bool(*f)) }
func (f *traceFlag) IsBoolFlag() bool { return true }
func (f *traceFlag) Set(s string) error {
	switch s {
	case "1", "true":
		*f = true
	case "0", "false":
		*f = false
	default:
		return fmt.Errorf("want 0 or 1, got %q", s)
	}
	return nil
}

// mergeTraceArg rewrites "--trace 0" to "--trace=0": the flag package
// never reads a boolean's value from the next argument.
func mergeTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload and print the driver's one-line JSON result")
	seed := fs.Uint64("seed", 1, "seed for every generator")
	seconds := fs.Float64("seconds", 0, "timed seconds per workload; 0 runs a fixed 5 reps")
	var trace traceFlag
	fs.Var(&trace, "trace", "run the traced pass (per-layer metrics)")
	compare := fs.Bool("compare", false, "compare two results.json files: -compare a.json b.json")
	if err := fs.Parse(mergeTraceArg(args)); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two results.json files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	// Load comes from this one process, on at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	// Five reps per workload when no time budget is given.
	cfg := &config{seed: *seed, seconds: *seconds, reps: 5, scale: 1, outDir: filepath.Join("bench", "out")}
	driverForm := *workloadName != ""
	if driverForm {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return err
		}
		cfg.workloads = []*workload{w}
		cfg.untraced, cfg.traced = !bool(trace), bool(trace)
	} else {
		for i := range workloads {
			cfg.workloads = append(cfg.workloads, &workloads[i])
		}
		cfg.untraced, cfg.traced = true, bool(trace)
	}
	// The driver runs from the root of a checkout; anywhere else the
	// output directory does not exist and nothing should be created.
	if _, err := os.Stat(filepath.Join("bench", "main.go")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}

	results, err := runAll(cfg)
	if err != nil {
		return err
	}
	h := fingerprint()
	if err := writeResults(cfg, h, results); err != nil {
		return err
	}
	if driverForm {
		return printDriverLine(cfg, results[0])
	}
	printTables(cfg, h, results)
	return nil
}

// host identifies where and from what the numbers came.
type host struct {
	GitSHA     string `json:"git_sha"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func fingerprint() host {
	h := host{
		GitSHA: "unknown", CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	h.GitSHA = gitSHA()
	return h
}

// gitSHA reads the commit from the build's VCS stamp, which `go run`
// sets inside a repository. The driver's checkout is not one, and there
// the answer is "unknown".
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return sha + dirty
}

// resultsFile is bench/out/results.json.
type resultsFile struct {
	Host      host              `json:"host"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds_budget"`
	Workloads []*workloadResult `json:"workloads"`
}

func writeResults(cfg *config, h host, results []*workloadResult) error {
	data, err := json.MarshalIndent(resultsFile{Host: h, Seed: cfg.seed, Seconds: cfg.seconds, Workloads: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(data, '\n'), 0o644)
}

// printDriverLine prints the one JSON object the driver reads: every
// end-to-end metric after an untraced run, every per-layer metric after
// a traced one.
func printDriverLine(cfg *config, res *workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, res.EndToEnd
	if cfg.traced {
		defs, values = perLayer, res.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{values[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTables(cfg *config, h host, results []*workloadResult) {
	fmt.Printf("pieo bench  commit %s  seed %d  %s  %d CPU (GOMAXPROCS %d)  %s %s\n",
		h.GitSHA, cfg.seed, h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OSArch)
	for _, res := range results {
		fmt.Printf("\n%s  (%d reps x %d packets, %d blocks, digest %s, every check passed%s)\n",
			res.Name, res.Reps, res.Packets, res.Blocks, orDash(res.Digest), timesharedNote(res.Timeshared))
		for _, d := range endToEnd {
			fmt.Printf("  %-28s %16.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
		}
		for _, k := range sortedKeys(res.Extra) {
			fmt.Printf("  %-28s %16.4f\n", k, res.Extra[k])
		}
		if res.PerLayer == nil {
			continue
		}
		fmt.Printf("  per layer (%d traced rep(s)):\n", res.TracedReps)
		for _, d := range perLayer {
			if v := res.PerLayer[d.Name]; v != 0 {
				fmt.Printf("    %-36s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	fmt.Printf("\nwrote %s\n", filepath.Join(cfg.outDir, "results.json"))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func timesharedNote(t bool) string {
	if t {
		return ", TIMESHARED: more workers than CPUs"
	}
	return ""
}
