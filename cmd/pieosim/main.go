// Command pieosim runs a packet scheduling algorithm over a synthetic
// workload on a simulated link and reports per-flow throughput, latency,
// and PIEO list statistics.
//
// Examples:
//
//	pieosim -algo wf2q -flows 8 -weights 4,2,1,1,1,1,1,1
//	pieosim -algo tokenbucket -flows 4 -rate 2.5 -duration 10
//	pieosim -algo drr -flows 16 -workload poisson -load 0.8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"pieo/internal/algos"
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/pktgen"
	_ "pieo/internal/refmodel" // register the "ref" backend
	"pieo/internal/sched"
	_ "pieo/internal/shard" // register the "sharded" backend
	"pieo/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) { // -h: the flag set has printed the usage
			fmt.Fprintln(os.Stderr, "pieosim:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command: parse args, simulate, write the report to w.
func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("pieosim", flag.ContinueOnError)
	var (
		algo     = fl.String("algo", "wf2q", "scheduling algorithm: fifo|drr|wfq|wf2q|tokenbucket|rcsp|priority|sjf|edf|lstf")
		flows    = fl.Int("flows", 8, "number of flows")
		link     = fl.Float64("link", 40, "link rate in Gbps")
		duration = fl.Float64("duration", 5, "simulated duration in milliseconds")
		workload = fl.String("workload", "backlogged", "workload: backlogged|cbr|poisson|onoff")
		load     = fl.Float64("load", 0.9, "offered load as a fraction of link rate (open-loop workloads)")
		mtu      = fl.Uint("mtu", 1500, "packet size in bytes")
		weights  = fl.String("weights", "", "comma-separated per-flow weights (fair queueing)")
		rate     = fl.Float64("rate", 1, "per-flow rate limit in Gbps (tokenbucket)")
		seed     = fl.Int64("seed", 1, "workload random seed")
		backName = fl.String("backend", "core", "ordered-list backend: "+strings.Join(backend.Names(), "|"))
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		// A bare `pieosim drr` would otherwise run the default simulation,
		// silently ignoring what the user asked for.
		return fmt.Errorf("unexpected argument %q (everything is a flag; see -h)", fl.Arg(0))
	}
	if *flows < 1 {
		return fmt.Errorf("-flows must be at least 1, got %d", *flows)
	}
	if *mtu == 0 {
		return fmt.Errorf("-mtu must be at least 1 byte")
	}
	for _, c := range []struct {
		name string
		v    float64
		used bool // -load is read by the open-loop workloads, -rate by the token bucket
	}{
		{"link", *link, true},
		{"duration", *duration, true},
		{"load", *load, *workload != "backlogged"},
		{"rate", *rate, *algo == "tokenbucket" || *algo == "tb"},
	} {
		if c.used && (!(c.v > 0) || math.IsInf(c.v, 1)) { // !(v > 0) also catches NaN
			return fmt.Errorf("-%s must be a positive finite number, got %v", c.name, c.v)
		}
	}

	prog, err := program(*algo)
	if err != nil {
		return err
	}
	be, err := backend.New(*backName, *flows+1)
	if err != nil {
		return err
	}
	s := sched.NewOn(prog, be, *link)

	// Control plane: configure the flows.
	for i := 0; i < *flows; i++ {
		f := s.Flow(flowq.FlowID(i))
		f.Priority = uint64(i)
		f.RateGbps = *rate
		f.Burst = 4 * float64(*mtu)
		f.Tokens = f.Burst
	}
	if *weights != "" {
		for i, wt := range strings.Split(*weights, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(wt), 10, 64)
			if err != nil || v == 0 {
				return fmt.Errorf("bad weight %q", wt)
			}
			if i < *flows {
				s.SetWeight(flowq.FlowID(i), v)
			}
		}
	}

	until := clock.Time(*duration * 1e6) // ms -> ns
	sim := netsim.New(netsim.Link{RateGbps: *link}, s)

	perFlow := make([]uint64, *flows)
	var delays []float64
	var seq uint64
	closedLoop := *workload == "backlogged"
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		perFlow[int(p.Flow)] += uint64(p.Size)
		delays = append(delays, float64(now-p.Arrival))
		if closedLoop {
			seq++
			sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Arrival: now, Seq: seq})
		}
	}

	// Workload.
	rng := rand.New(rand.NewSource(*seed))
	size := pktgen.FixedSize(uint32(*mtu))
	switch *workload {
	case "backlogged":
		for i := 0; i < *flows; i++ {
			for k := 0; k < 4; k++ {
				seq++
				sim.InjectOne(0, flowq.Packet{Flow: flowq.FlowID(i), Size: uint32(*mtu), Seq: seq})
			}
		}
	case "cbr", "poisson", "onoff":
		perFlowGbps := *link * *load / float64(*flows)
		gap := pktgen.GapForRate(perFlowGbps, uint32(*mtu))
		gens := make([]pktgen.Generator, *flows)
		count := int(uint64(until) / uint64(gap))
		for i := 0; i < *flows; i++ {
			id := flowq.FlowID(i)
			switch *workload {
			case "cbr":
				gens[i] = &pktgen.CBR{Flow: id, Size: size, Gap: gap, Count: count}
			case "poisson":
				gens[i] = &pktgen.Poisson{Flow: id, Size: size, MeanGap: float64(gap), Count: count, Rng: rng}
			case "onoff":
				gens[i] = &pktgen.OnOff{Flow: id, Size: size, BurstLen: 8, PktGap: gap / 4, IdleGap: 7 * gap, Count: count}
			}
		}
		sim.Inject(pktgen.Merge(gens...))
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}

	sim.Run(until)

	// Report.
	fmt.Fprintf(w, "algorithm: %s (%s)   link: %.0f Gbps   duration: %.2f ms   workload: %s\n",
		prog.Name, prog.Model, *link, *duration, *workload)
	fmt.Fprintf(w, "packets sent: %d   link utilization: %.1f%%\n", sim.Sent(), 100*sim.Utilization())
	var shares []float64
	fmt.Fprintln(w, "flow  bytes        Gbps")
	for i, b := range perFlow {
		gbps := float64(b) * 8 / float64(until)
		shares = append(shares, gbps)
		fmt.Fprintf(w, "%-4d  %-11d  %.3f\n", i, b, gbps)
	}
	fmt.Fprintf(w, "fairness (Jain): %.4f\n", stats.JainIndex(shares))
	if len(delays) > 0 {
		sort.Float64s(delays)
		sum := stats.Summarize(delays)
		fmt.Fprintf(w, "queueing delay ns: p50=%.0f p99=%.0f max=%.0f\n", sum.P50, sum.P99, sum.Max)
	}
	ls := s.List.Stats()
	fmt.Fprintf(w, "backend %q: %d enq, %d deq (%d empty), %d flow-deq, %d range-deq\n",
		*backName, ls.Enqueues, ls.Dequeues, ls.EmptyDequeues, ls.FlowDequeues, ls.RangeDequeues)
	if hw, ok := s.List.(backend.HardwareModeled); ok {
		hs := hw.HardwareStats()
		fmt.Fprintf(w, "hardware model: %d cycles, %d sublist reads, %d writes\n",
			hs.Cycles, hs.SublistReads, hs.SublistWrites)
	}
	if fs := sim.FaultStats(); fs != (backend.FaultStats{}) {
		return fmt.Errorf("scheduler faults: %+v", fs)
	}
	return nil
}

func program(algo string) (*sched.Program, error) {
	switch algo {
	case "fifo":
		return algos.FIFO(), nil
	case "drr":
		return algos.DRR(), nil
	case "wfq":
		return algos.WFQ(), nil
	case "wf2q":
		return algos.WF2Q(), nil
	case "tokenbucket", "tb":
		return algos.TokenBucket(), nil
	case "rcsp":
		return algos.RCSP(), nil
	case "priority", "sp":
		return algos.StrictPriority(), nil
	case "sjf":
		return algos.SJF(), nil
	case "edf":
		return algos.EDF(), nil
	case "lstf":
		return algos.LSTF(), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
}
