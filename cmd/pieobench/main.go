// Command pieobench regenerates the paper's evaluation tables and
// figures (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	pieobench -experiment fig8        # one experiment
//	pieobench -experiment all         # everything (default)
//	pieobench -format csv             # for plotting tools
//	pieobench -list                   # list experiment ids
//
// Software throughput is not measured here: `go run ./bench` is the
// one measurement stack (bench/README.md), and profiling a datapath is
// `go test -bench … -cpuprofile` on the root and internal/core
// benchmarks.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

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
// write their tables to w.
func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("pieobench", flag.ContinueOnError)
	experiment := fl.String("experiment", "all", "experiment id to run, or 'all'")
	format := fl.String("format", "table", "output format: table|csv")
	list := fl.Bool("list", false, "list available experiment ids and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		// A bare `pieobench fig8` would otherwise run every experiment,
		// silently ignoring what the user asked for.
		return fmt.Errorf("unexpected argument %q (select experiments with -experiment)", fl.Arg(0))
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	ids := experiments.IDs()
	if *list {
		for _, id := range ids {
			fmt.Fprintln(w, id)
		}
		return nil
	}
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	for _, id := range ids {
		tab, err := experiments.Run(id)
		if err != nil {
			return err
		}
		if *format == "csv" {
			tab.FprintCSV(w)
		} else {
			tab.Fprint(w)
		}
	}
	return nil
}
