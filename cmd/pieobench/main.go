// Command pieobench regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the experiment index).
//
// Usage:
//
//	pieobench -experiment fig8        # one experiment
//	pieobench -experiment all         # everything (default)
//	pieobench -list                   # list experiment ids
//	pieobench -experiment hotpath -cpuprofile cpu.pprof
//	pieobench -experiment combining -json   # also write BENCH_combining.json
//	pieobench -experiment hotpath -backend core,cffs,sharded+cffs
//	pieobench -experiment combining -procs 1,2,4,8 -json
//
// The -backend flag selects, by backend-registry name, which backends
// the datapath-measuring experiments sweep — any registered backend
// works, with no per-backend switch in the harness.
//
// The -procs flag re-runs the selected experiments once per listed
// GOMAXPROCS value; with -json the rows of every run are merged —
// each stamped with its experiment id and gomaxprocs — into a single
// BENCH_scaling.json keyed (experiment, backend, K, procs). The
// "scaling" experiment manages its own GOMAXPROCS sweep internally
// and is the usual way to produce BENCH_scaling.json; -procs exists
// to put ANY experiment under the same sweep.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// the experiment run, for `go tool pprof` analysis of the software
// datapath (the "hotpath" experiment is the intended subject, but the
// profiles cover whichever experiments run).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pieo/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) { // -h: the flag set has printed the usage
			fmt.Fprintln(os.Stderr, "pieobench:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command: parse args, run the selected experiments,
// write their tables to w (and the -json/-profile files where asked).
func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("pieobench", flag.ContinueOnError)
	experiment := fl.String("experiment", "all", "experiment id to run, or 'all'")
	format := fl.String("format", "table", "output format: table|csv")
	jsonOut := fl.Bool("json", false, "additionally write BENCH_<experiment>.json per experiment (machine-readable rows plus host metadata)")
	list := fl.Bool("list", false, "list available experiment ids and exit")
	backends := fl.String("backend", "", "comma-separated registry backend names the measuring experiments sweep (default: "+strings.Join(experiments.Backends(), ",")+"); any registered name works")
	procsFlag := fl.String("procs", "", "comma-separated GOMAXPROCS values (e.g. 1,2,4,8): re-run the selected experiments under each value; with -json, merge all rows into one BENCH_scaling.json")
	cpuprofile := fl.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fl.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		// A bare `pieobench hotpath` would otherwise run every experiment,
		// silently ignoring what the user asked for.
		return fmt.Errorf("unexpected argument %q (select experiments with -experiment, backends with -backend)", fl.Arg(0))
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(w, id)
		}
		return nil
	}

	if *backends != "" {
		if err := experiments.SetBackends(strings.Split(*backends, ",")); err != nil {
			return err
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	ids := experiments.IDs()
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	if *procsFlag != "" {
		if err := runSweep(w, *procsFlag, ids, *format, *jsonOut); err != nil {
			return err
		}
		return writeMemProfile(*memprofile)
	}
	for _, id := range ids {
		tab, err := experiments.Run(id)
		if err != nil {
			return err
		}
		printTable(w, tab, *format)
		if *jsonOut {
			if err := writeBenchJSON(tab); err != nil {
				return fmt.Errorf("json: %w", err)
			}
		}
	}
	return writeMemProfile(*memprofile)
}

// printTable renders tab in the (already validated) format.
func printTable(w io.Writer, tab *experiments.Table, format string) {
	if format == "csv" {
		tab.FprintCSV(w)
		return
	}
	tab.Fprint(w)
}

// writeMemProfile writes the heap profile (if requested) after the
// experiments have run.
func writeMemProfile(memprofile string) error {
	if memprofile == "" {
		return nil
	}
	f, err := os.Create(memprofile)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// runSweep is the -procs path: every selected experiment re-runs under
// each GOMAXPROCS value, the per-run tables print normally, and (with
// -json) every row lands — stamped with its experiment id and effective
// gomaxprocs — in one merged BENCH_scaling.json, the
// (experiment, backend, K, procs)-keyed artifact CI uploads.
func runSweep(w io.Writer, spec string, ids []string, format string, jsonOut bool) error {
	var procs []int
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return fmt.Errorf("-procs: %q is not a positive integer", f)
		}
		procs = append(procs, v)
	}
	merged := benchJSON{
		Experiment: "scaling",
		Title:      "GOMAXPROCS sweep: " + strings.Join(ids, ", "),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Columns:    []string{"experiment", "gomaxprocs"},
	}
	seen := map[string]bool{"experiment": true, "gomaxprocs": true}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		for _, id := range ids {
			tab, err := experiments.Run(id)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "-- GOMAXPROCS=%d --\n", p)
			printTable(w, tab, format)
			for _, c := range tab.Columns {
				if !seen[c] {
					seen[c] = true
					merged.Columns = append(merged.Columns, c)
				}
			}
			for _, m := range rowMaps(tab) {
				m["experiment"] = tab.ID
				stampGomaxprocs(m, p)
				merged.Rows = append(merged.Rows, m)
			}
			for _, n := range tab.Notes {
				merged.Notes = append(merged.Notes, fmt.Sprintf("[%s@procs=%d] %s", tab.ID, p, n))
			}
		}
	}
	runtime.GOMAXPROCS(prev)
	if !jsonOut {
		return nil
	}
	data, err := json.MarshalIndent(&merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_scaling.json", append(data, '\n'), 0o644)
}

// benchJSON is the BENCH_<experiment>.json schema: the experiment's rows
// keyed by column name (so ns/op, allocs/op, backend, n survive column
// reordering), plus the host metadata a CI artifact needs to be
// comparable across runs. The top-level gomaxprocs records the process
// setting at startup; every row ALSO carries its own "gomaxprocs" key,
// because a -procs sweep (and the scaling experiment itself) measures
// different rows under different settings — per-row is authoritative.
type benchJSON struct {
	Experiment string              `json:"experiment"`
	Title      string              `json:"title"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	GitSHA     string              `json:"git_sha"`
	Columns    []string            `json:"columns"`
	Rows       []map[string]string `json:"rows"`
	Notes      []string            `json:"notes"`
}

// rowMaps converts tab's positional rows into column-keyed maps.
func rowMaps(tab *experiments.Table) []map[string]string {
	out := make([]map[string]string, 0, len(tab.Rows))
	for _, row := range tab.Rows {
		m := make(map[string]string, len(row)+2)
		for i, cell := range row {
			if i < len(tab.Columns) {
				m[tab.Columns[i]] = cell
			}
		}
		out = append(out, m)
	}
	return out
}

// stampGomaxprocs records the GOMAXPROCS a row was measured under. An
// experiment that sweeps procs itself (scaling) publishes the true
// per-row value in its "procs" column, which wins over the process-wide
// setting the harness knows about.
func stampGomaxprocs(m map[string]string, processProcs int) {
	if v, ok := m["procs"]; ok {
		m["gomaxprocs"] = v
		return
	}
	m["gomaxprocs"] = strconv.Itoa(processProcs)
}

// writeBenchJSON renders tab as BENCH_<id>.json in the working
// directory — the machine-readable artifact the CI bench-smoke job
// uploads so perf regressions leave a diffable trail.
func writeBenchJSON(tab *experiments.Table) error {
	out := benchJSON{
		Experiment: tab.ID,
		Title:      tab.Title,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Columns:    tab.Columns,
		Notes:      tab.Notes,
		Rows:       rowMaps(tab),
	}
	hasCol := false
	for _, c := range out.Columns {
		if c == "gomaxprocs" {
			hasCol = true
			break
		}
	}
	if !hasCol {
		out.Columns = append(append([]string{}, out.Columns...), "gomaxprocs")
	}
	for _, m := range out.Rows {
		stampGomaxprocs(m, runtime.GOMAXPROCS(0))
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+tab.ID+".json", append(data, '\n'), 0o644)
}

// gitSHA best-efforts the commit hash for artifact provenance; outside a
// git checkout (or without git on PATH) it degrades to "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
