package main

import (
	"fmt"
	"math"
)

// A "packet" is one element extracted and handed to its consumer. Every
// rep of a workload runs a fixed number of them, so its outputs are the
// same on every host and can be checked; only the time they take varies.

// params is what one rep is built from. The program under test sees
// only inputs generated from seed.
type params struct {
	seed    uint64
	packets int       // timed packets (per worker on contended_sharded)
	warm    int       // warm-up packets, charged to setup_s
	block   int       // packets per timed block
	tracers []*tracer // one per worker; nil in the untraced pass
}

func (p params) tracer(worker int) *tracer {
	if p.tracers == nil {
		return nil
	}
	return p.tracers[worker]
}

// instance is one freshly built rep of a workload.
type instance interface {
	// warmUp fills caches, arenas, flow maps and the classifier table.
	warmUp()
	// run is the timed region; clocks has one entry per worker.
	run(clocks []*blockClock)
	// finish runs the correctness gate and collects what the instance
	// alone can count. It must leave every structure alive until it
	// returns: heap_mb is read with them resident.
	finish() (outcome, error)
}

// outcome is what a rep reports besides its timings.
type outcome struct {
	packets   int64 // timed packets handed to their consumer
	attempted int64 // operations attempted in the timed region
	failed    int64 // of those, refused, dropped, errored or lost
	digest    uint64
	hasDigest bool    // false where the schedule depends on thread timing
	rateErr   float64 // rate_error_pct; NaN where the workload enforces no rate
	// layer holds per-layer values only the instance can count, keyed
	// by their BENCHMARK.json name.
	layer map[string]float64
}

type workload struct {
	name       string
	why        string
	packets    int
	warm       int
	block      int
	workers    int
	listLayer  string // layer the Backend wrapper reports as
	schedLayer string // layer the netsim.Scheduler wrapper reports as
	// maxRateErr bounds rate_error_pct: a rep whose simulated-time
	// enforcement error exceeds it fails the correctness gate.
	maxRateErr float64
	build      func(p params) instance
	// replay, where set, checks the workload's op stream against the
	// reference model before anything is timed.
	replay func(seed uint64) error
}

// workloads is the fixed set. Sizes give roughly one second of timed
// region per rep on the 2-core reference host.
var workloads = []workload{
	{
		name:    "nicpath_flat",
		why:     "Fig 1 path on real frames: wire decode, classify, WF2Q+ sched over a 4096-entry core list, netsim at 40G; smallest frames, so per-packet cost dominates and every layer of the flat path shares it",
		packets: 1_000_000, warm: 100_000, block: 1024, workers: 1,
		listLayer: "core", schedLayer: "sched", maxRateErr: 2.0,
		build: func(p params) instance { return newNicpath(p) },
	},
	{
		name:    "hier_partitioned",
		why:     "100 VMs x 100 flows, token bucket over WF2Q+, all 10k nodes on one shared core list (sec 4.2): ranged dequeues issued by hier dominate, sched is bypassed, the policy is non-work-conserving",
		packets: 40_000, warm: 10_000, block: 128, workers: 1,
		listLayer: "core", schedLayer: "hier", maxRateErr: 2.5,
		build: func(p params) instance { return newHierPart(p) },
	},
	{
		name:    "list_hold",
		why:     "raw core list, 2^18 resident, classic hold model, everything eligible: core does all the work with no layer above it, and the model is stationary",
		packets: 400_000, warm: 50_000, block: 1024, workers: 1,
		listLayer: "core", maxRateErr: math.NaN(),
		build:  func(p params) instance { return newHoldInstance(p) },
		replay: replayHold,
	},
	{
		name:    "paced_sparse",
		why:     "raw core list, 100k token-bucket-paced flows, Carousel loop: same core layer used through eligibility-filtered dequeues, a guaranteed miss and a wake query per round via the timing wheel",
		packets: 650_000, warm: 100_000, block: 1024, workers: 1,
		listLayer: "core", maxRateErr: 0,
		build:  func(p params) instance { return newPacedInstance(p) },
		replay: replayPaced,
	},
	{
		name:    "contended_sharded",
		why:     "8-shard engine, default config, 2 goroutines running the hold model: shard tournament, locks and rings do the work and appear in no other workload; procs <= NumCPU",
		packets: 350_000, warm: 50_000, block: 1024, workers: 2,
		listLayer: "shard", maxRateErr: math.NaN(),
		build: func(p params) instance { return newContended(p) },
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rng is splitmix64: the generators sit inside timed loops, so their
// cost is part of driver.self_ns_per_pkt and should be small and flat.
type rng struct{ s uint64 }

func newRng(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pickSubset marks exactly count of n indexes, chosen by r, so a
// property's share is the same for every seed and only its placement
// varies.
func pickSubset(r *rng, n, count int) []bool {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	marked := make([]bool, n)
	for i := 0; i < count; i++ {
		j := i + r.intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		marked[idx[i]] = true
	}
	return marked
}

// Schedule digest: FNV-1a folded over 64-bit words rather than bytes —
// one multiply per field keeps it out of the per-packet profile.
const (
	digestSeed  = 14695981039346656037
	digestPrime = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * digestPrime }
