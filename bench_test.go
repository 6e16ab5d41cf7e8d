// Benchmarks: one per paper table/figure (reporting that experiment's
// headline value as a custom metric) plus micro-benchmarks of the PIEO
// primitive operations, the scheduler framework, and the hierarchy.
//
// Run with: go test -bench=. -benchmem
package pieo

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pieo/internal/algos"
	"pieo/internal/dict"
	"pieo/internal/experiments"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/hwmodel"
	"pieo/internal/hwsim"
	"pieo/internal/netsim"
	"pieo/internal/pifo"
	"pieo/internal/pipeline"
	"pieo/internal/sched"
	"pieo/internal/stats"
	"pieo/internal/wire"
)

// --- PIEO primitive micro-benchmarks (§6.2 scheduling rate) ---

func benchSizes() []int { return []int{1 << 10, 1 << 12, 1 << 14, 30000} }

// warmList builds a half-full list of capacity n.
func warmList(n int, eligible bool) (*List, *rand.Rand) {
	l := NewList(n)
	rng := rand.New(rand.NewSource(42))
	send := Never
	if eligible {
		send = Always
	}
	for i := 0; i < n/2; i++ {
		if err := l.Enqueue(Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16)), SendTime: send}); err != nil {
			panic(err)
		}
	}
	return l, rng
}

func BenchmarkPIEOEnqueueDequeue(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l, rng := warmList(n, true)
			id := uint32(n)
			before := l.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					id++
					_ = l.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(1 << 16)), SendTime: Always})
				} else {
					l.Dequeue(0)
				}
			}
			s := l.Stats()
			b.ReportMetric(float64(s.Cycles-before.Cycles)/float64(b.N), "hwcycles/op")
			b.ReportMetric(float64(s.SublistReads+s.SublistWrites-before.SublistReads-before.SublistWrites)/float64(b.N), "sram-accesses/op")
		})
	}
}

func BenchmarkPIEODequeueFlow(b *testing.B) {
	l, _ := warmList(1<<14, false)
	ids := make([]uint32, 0, 1<<13)
	for i := 0; i < 1<<13; i++ {
		ids = append(ids, uint32(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		e, ok := l.DequeueFlow(id)
		if ok {
			_ = l.Enqueue(e)
		}
	}
}

func BenchmarkPIEODequeueRange(b *testing.B) {
	// Hierarchical logical-PIEO extraction: 100 nodes of 100 ids each.
	l, _ := warmList(10000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint32((i % 100) * 100)
		e, ok := l.DequeueRange(0, lo, lo+99)
		if ok {
			_ = l.Enqueue(e)
		}
	}
}

// --- Uncontended single-thread core datapath ---
//
// The hotpath acceptance benchmarks: one goroutine driving a backend
// through the §3.1 primitives with no lock contention, so the numbers
// isolate the core datapath (position search, sublist shifts, metadata
// refresh) that EXPERIMENTS.md "hotpath" tracks. Sizes deliberately
// bracket the paper's 30K operating point and extend to 2^19, where the
// √n sublist geometry makes sequential scans expensive enough to matter.

func coreBenchSizes() []int { return []int{1 << 10, 30000, 1 << 19} }

// coreBenchBackends enumerates the exact backends worth measuring
// uncontended. The flat reference model is excluded: its O(n) scans at
// 2^19 would take minutes per benchmark.
func coreBenchBackends() []string { return []string{"core", "sharded", "cffs", "sharded+cffs"} }

// warmBackend builds a half-full backend of capacity n with uniformly
// random ranks, all eligible.
func warmBackend(b *testing.B, name string, n int) (Backend, *rand.Rand) {
	be, err := NewBackend(name, n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n/2; i++ {
		if err := be.Enqueue(Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 20)), SendTime: Always}); err != nil {
			b.Fatal(err)
		}
	}
	return be, rng
}

func BenchmarkCoreEnqueue(b *testing.B) {
	for _, name := range coreBenchBackends() {
		for _, n := range coreBenchSizes() {
			b.Run(fmt.Sprintf("backend=%s/n=%d", name, n), func(b *testing.B) {
				be, rng := warmBackend(b, name, n)
				id := uint32(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id++
					if err := be.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(1 << 20)), SendTime: Always}); err != nil {
						// Refill transient: drain back to half full with the
						// timer stopped so only enqueues are measured.
						b.StopTimer()
						for be.Len() > n/2 {
							be.Dequeue(0)
						}
						b.StartTimer()
						if err := be.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(1 << 20)), SendTime: Always}); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

func BenchmarkCoreDequeue(b *testing.B) {
	for _, name := range coreBenchBackends() {
		for _, n := range coreBenchSizes() {
			b.Run(fmt.Sprintf("backend=%s/n=%d", name, n), func(b *testing.B) {
				be, rng := warmBackend(b, name, n)
				id := uint32(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := be.Dequeue(0); !ok {
						// Drained: refill to half full with the timer stopped
						// so only dequeues are measured.
						b.StopTimer()
						for be.Len() < n/2 {
							id++
							_ = be.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(1 << 20)), SendTime: Always})
						}
						b.StartTimer()
						if _, ok := be.Dequeue(0); !ok {
							b.Fatal("refilled backend empty")
						}
					}
				}
			})
		}
	}
}

// BenchmarkCoreMixed alternates enqueue and dequeue at steady-state
// half-occupancy — the EXPERIMENTS.md "hotpath" headline shape.
func BenchmarkCoreMixed(b *testing.B) {
	for _, name := range coreBenchBackends() {
		for _, n := range coreBenchSizes() {
			b.Run(fmt.Sprintf("backend=%s/n=%d", name, n), func(b *testing.B) {
				be, rng := warmBackend(b, name, n)
				id := uint32(n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%2 == 0 {
						id++
						_ = be.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(1 << 20)), SendTime: Always})
					} else {
						be.Dequeue(0)
					}
				}
			})
		}
	}
}

// BenchmarkCoreMixedBatch is BenchmarkCoreMixed through the batch APIs:
// 64-entry EnqueueBatch alternating with DequeueUpTo(64), measuring the
// per-element amortization the backend.Batcher capability buys.
func BenchmarkCoreMixedBatch(b *testing.B) {
	const batch = 64
	for _, name := range coreBenchBackends() {
		for _, n := range coreBenchSizes() {
			b.Run(fmt.Sprintf("backend=%s/n=%d", name, n), func(b *testing.B) {
				be, rng := warmBackend(b, name, n)
				id := uint32(n)
				in := make([]Entry, batch)
				out := make([]Entry, 0, batch)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += 2 * batch {
					for j := range in {
						id++
						in[j] = Entry{ID: id, Rank: uint64(rng.Intn(1 << 20)), SendTime: Always}
					}
					if _, err := EnqueueBatch(be, in); err != nil {
						b.Fatal(err)
					}
					out = DequeueUpTo(be, 0, batch, out[:0])
					if len(out) != batch {
						b.Fatal("batch dequeue came up short")
					}
				}
			})
		}
	}
}

// BenchmarkSparseEligibility pins the sparse-eligibility regime: a
// 2^19-element backlog of paced flows where under 1% are eligible at any
// instant, driven through the Carousel wake->dispatch round — a dequeue
// probe that misses (sparse eligibility makes this the common case), the
// next-release query, and the dispatch+re-arm at the promised instant.
// core and sharded answer from the Ordered-Sublist-Array's eligibility
// summaries and report one row; the cffs backends keep a timing wheel
// beside a scan fallback and report both (index=scan disables the wheel
// first). EXPERIMENTS.md records reference numbers.
func BenchmarkSparseEligibility(b *testing.B) {
	const n = 1 << 19
	for _, name := range coreBenchBackends() {
		indexes := []string{""}
		if strings.Contains(name, "cffs") {
			indexes = []string{"scan", "wheel"}
		}
		for _, idx := range indexes {
			label := fmt.Sprintf("backend=%s/n=%d", name, n)
			if idx != "" {
				label += "/index=" + idx
			}
			b.Run(label, func(b *testing.B) {
				be, err := NewBackend(name, n)
				if err != nil {
					b.Fatal(err)
				}
				ix, ok := be.(EligIndexed)
				if !ok {
					b.Fatalf("backend %q lacks the EligIndexed capability", name)
				}
				if idx == "scan" {
					ix.DisableEligIndex()
				}
				// Open-loop pacing: each flow re-arms one horizon ahead, so
				// releases stay spread and the eligible fraction at any
				// instant is bounded by (elements released per round)/n < 1%.
				const horizon = Time(n) * 16
				rng := rand.New(rand.NewSource(42))
				next := make([]Time, n)
				for i := 0; i < n; i++ {
					next[i] = 1 + Time(rng.Int63n(int64(horizon)))
					if err := be.Enqueue(Entry{ID: uint32(i), Rank: uint64(next[i]), SendTime: next[i]}); err != nil {
						b.Fatal(err)
					}
				}
				var now Time
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Drain everything due at now (dispatch + re-arm one
					// horizon ahead); the final miss is the sparse-eligibility
					// probe.
					dispatched := false
					for {
						ent, ok := be.Dequeue(now)
						if !ok {
							break
						}
						dispatched = true
						f := ent.ID
						next[f] += horizon
						if err := be.Enqueue(Entry{ID: f, Rank: uint64(next[f]), SendTime: next[f]}); err != nil {
							b.Fatal(err)
						}
					}
					if now > 0 && !dispatched {
						b.Fatal("wake hint delivered no eligible element")
					}
					// The next-release query.
					wake := ix.NextWakeAfter(now)
					if wake == Never {
						b.Fatal("backlogged backend reported no next release")
					}
					now = wake
				}
			})
		}
	}
}

// --- Contended concurrent backends ---
//
// benchContended drives a concurrency-safe backend with 8 producer
// goroutines (b.SetParallelism(8) forces the count regardless of
// GOMAXPROCS) racing one consumer goroutine draining continuously —
// the per-connection-producers/one-transmit-scheduler shape SyncList's
// doc comment describes. Reported ns/op is the producer-side enqueue
// cost under contention; ErrFull is backpressure (the consumer is
// behind), answered by yielding and retrying.
func benchContended(b *testing.B, be Backend) {
	var ids atomic.Uint32
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // consumer
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := be.Dequeue(0); !ok {
				runtime.Gosched()
			}
		}
	}()
	b.SetParallelism(8)
	b.ResetTimer() // constructing a large backend is setup, not throughput
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := ids.Add(1)
			for {
				// Monotone ranks model the common fair-queueing shape
				// (virtual finish times grow and rarely collide), so the
				// dequeue side exercises rank ordering, not a pathological
				// all-ranks-tied FIFO storm.
				err := be.Enqueue(Entry{ID: id, Rank: uint64(id), SendTime: Always})
				if err == nil {
					break
				}
				if err == ErrFull {
					runtime.Gosched()
					continue
				}
				b.Error(err)
				return
			}
		}
	})
	close(stop)
	<-done
}

// Capacity 1<<19 puts the backends deep in the regime the sharded engine
// exists for (√n sublist scans and shifts dominating the mutex hold
// time). K=8 is the engine's default and makes shard locks contend;
// K=32 keeps per-shard geometry at √(n/K) ≈ 128. Steady state holds the
// list at capacity, so run with a benchtime well above the fill
// transient (b.N >= ~4x capacity) when comparing backends —
// EXPERIMENTS.md records reference numbers at -benchtime 10s.
func BenchmarkSyncListContended(b *testing.B) {
	benchContended(b, NewSyncList(1<<19))
}

func BenchmarkShardedContended(b *testing.B) {
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			benchContended(b, NewShardedList(1<<19, k))
		})
	}
}

// --- Footprint pins: what a capacity costs before it is used ---

// BenchmarkConstruct is ns/op and B/op to build an empty backend: capacity
// is a bound, so neither may scale with it (or with K times it)
// (EXPERIMENTS.md "footprint").
func BenchmarkConstruct(b *testing.B) {
	for _, c := range []struct {
		name string
		new  func() any
	}{
		{"core-2^19", func() any { return NewList(1 << 19) }},
		{"sharded-2^19x8", func() any { return NewShardedList(1<<19, 8) }},
		{"sharded-2^19x64", func() any { return NewShardedList(1<<19, 64) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink any
			for i := 0; i < b.N; i++ {
				sink = c.new()
			}
			runtime.KeepAlive(sink)
		})
	}
}

// BenchmarkFillTo builds a 2^19-capacity core list and enqueues r fresh
// IDs, so every storage growth step and flow-index doubling up to r
// residents is inside the number.
func BenchmarkFillTo(b *testing.B) {
	for _, log := range []int{12, 18} {
		r := 1 << log
		b.Run(fmt.Sprintf("2^%d", log), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < b.N; i++ {
				l := NewList(1 << 19)
				for id := 0; id < r; id++ {
					if err := l.Enqueue(Entry{ID: uint32(id), Rank: uint64(rng.Intn(1 << 30))}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkPIFOBaselineEnqueueDequeue(b *testing.B) {
	// The PIFO flip-flop model at its maximum feasible size (1K).
	l := pifo.New(1 << 10)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 512; i++ {
		_ = l.Enqueue(pifo.Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16))})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_ = l.Enqueue(pifo.Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16))})
		} else {
			l.Dequeue()
		}
	}
}

// --- One benchmark per paper artifact ---

// BenchmarkFig2WF2QOrders regenerates Fig 2 and reports the two-PIFO
// emulation's max order deviation.
func BenchmarkFig2WF2QOrders(b *testing.B) {
	var dev float64
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig2()
		dev = mustFloat(b, tab.Rows[3][2])
	}
	b.ReportMetric(dev, "two-pifo-max-dev")
}

// BenchmarkFig8LogicScaling regenerates Fig 8 and reports PIEO's ALM
// share at the 30K operating point.
func BenchmarkFig8LogicScaling(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		r := hwmodel.PIEOResources(hwmodel.PIEOGeometry(30000))
		pct = r.ALMPercent(hwmodel.StratixV)
	}
	b.ReportMetric(pct, "pieo-alm-%@30K")
	b.ReportMetric(hwmodel.PIFOResources(1<<10).ALMPercent(hwmodel.StratixV), "pifo-alm-%@1K")
}

// BenchmarkFig9SRAMScaling regenerates Fig 9's 30K point.
func BenchmarkFig9SRAMScaling(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		r := hwmodel.PIEOResources(hwmodel.PIEOGeometry(30000))
		pct = r.SRAMPercent(hwmodel.StratixV)
	}
	b.ReportMetric(pct, "pieo-sram-%@30K")
}

// BenchmarkFig10ClockRate regenerates Fig 10's operating points.
func BenchmarkFig10ClockRate(b *testing.B) {
	var mhz float64
	for i := 0; i < b.N; i++ {
		mhz = hwmodel.PIEOClockMHz(hwmodel.PIEOGeometry(30000))
	}
	b.ReportMetric(mhz, "pieo-mhz@30K")
	b.ReportMetric(hwmodel.NsPerOp(mhz, hwmodel.CyclesPerOp), "pieo-ns/op@30K")
	b.ReportMetric(hwmodel.PIFOClockMHz(1<<10), "pifo-mhz@1K")
}

// BenchmarkScalabilityHeadline regenerates the >30x headline.
func BenchmarkScalabilityHeadline(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pifoMax := hwmodel.MaxPIFOFit(hwmodel.StratixV)
		pieoMax := hwmodel.MaxPIEOFit(hwmodel.StratixV)
		ratio = float64(pieoMax) / float64(pifoMax)
	}
	b.ReportMetric(ratio, "scalability-ratio")
}

// BenchmarkFig11RateLimit runs one Fig 11 rate point (16 Gbps) per
// iteration and reports the enforcement error.
func BenchmarkFig11RateLimit(b *testing.B) {
	var errPct float64
	for i := 0; i < b.N; i++ {
		got, _ := experiments.RunEnforcementPoint(16)
		errPct = 100 * (got - 16) / 16
	}
	b.ReportMetric(errPct, "rate-error-%")
}

// BenchmarkFig12FairQueue runs one Fig 12 rate point per iteration and
// reports the intra-VM Jain fairness index.
func BenchmarkFig12FairQueue(b *testing.B) {
	var jain float64
	for i := 0; i < b.N; i++ {
		_, flows := experiments.RunEnforcementPoint(16)
		jain = stats.JainIndex(flows)
	}
	b.ReportMetric(jain, "jain-index")
}

// BenchmarkOrderDeviation runs the §2.3 O(N) deviation instance at
// N=1024 and reports max deviation / N.
func BenchmarkOrderDeviation(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = experiments.DeviationFraction(1024)
	}
	b.ReportMetric(frac, "max-dev/N")
}

// BenchmarkAblationSublistSize sweeps sublist geometry at N=4096.
func BenchmarkAblationSublistSize(b *testing.B) {
	for _, s := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			l := NewListWithSublistSize(4096, s)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 2048; i++ {
				_ = l.Enqueue(Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 16)), SendTime: Always})
			}
			id := uint32(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					id++
					_ = l.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(1 << 16)), SendTime: Always})
				} else {
					l.Dequeue(0)
				}
			}
			b.ReportMetric(float64(hwmodel.PIEOResources(hwmodel.GeometryWithSublistSize(4096, s)).ALMs), "model-alms")
		})
	}
}

// BenchmarkAblationTriggerModel compares the dequeue-path cost of
// output- vs input-triggered pacing (§3.2.1).
func BenchmarkAblationTriggerModel(b *testing.B) {
	progs := map[string]*sched.Program{
		"output": {
			Name: "pace-output",
			PreEnqueue: func(s *sched.Scheduler, now Time, f *sched.Flow) {
				head, _ := f.Queue.Head()
				f.Rank = uint64(head.SendAt)
				f.SendTime = head.SendAt
			},
		},
		"input": {
			Name:  "pace-input",
			Model: sched.InputTriggered,
			PrePacket: func(s *sched.Scheduler, now Time, f *sched.Flow, p *flowq.Packet) {
				p.Rank = uint64(p.SendAt)
			},
		},
	}
	for name, prog := range progs {
		b.Run(name, func(b *testing.B) {
			s := sched.New(prog, 1024, 40)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < b.N+2048; i++ {
				s.OnArrival(0, flowq.Packet{
					Flow:   flowq.FlowID(rng.Intn(1024)),
					Size:   1500,
					SendAt: Time(rng.Intn(1 << 20)),
					Seq:    uint64(i),
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.NextPacket(Time(1) << 40); !ok {
					b.Fatal("scheduler drained early")
				}
			}
		})
	}
}

// BenchmarkPipelineIssueRates regenerates the §6.2 pipelining study and
// reports the port-aware issue rate on independent streams.
func BenchmarkPipelineIssueRates(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		r := pipeline.Simulate(pipeline.IndependentStream(4096, 64), pipeline.PortAware)
		rate = r.OpsPerCycle
	}
	b.ReportMetric(rate, "port-aware-ops/cycle")
	b.ReportMetric(pipeline.Simulate(pipeline.IndependentStream(4096, 64), pipeline.NonPipelined).OpsPerCycle, "non-pipelined-ops/cycle")
}

// BenchmarkDevicesSweep regenerates the cross-device comparison and
// reports the PIEO/PIFO advantage on the Stratix 10.
func BenchmarkDevicesSweep(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		adv = float64(hwmodel.MaxPIEOFitOn(hwmodel.Stratix10)) / float64(hwmodel.MaxPIFOFitOn(hwmodel.Stratix10))
	}
	b.ReportMetric(adv, "stratix10-advantage-x")
}

// BenchmarkApproxStructures regenerates the §2.3 approximation study
// and reports the 64-band FIFO's mean order deviation.
func BenchmarkApproxStructures(b *testing.B) {
	var dev float64
	for i := 0; i < b.N; i++ {
		tab := experiments.Approx()
		for _, row := range tab.Rows {
			if row[0] == "multi-priority FIFO" && strings.HasPrefix(row[1], "64 ") {
				dev = mustFloat(b, row[3])
			}
		}
	}
	b.ReportMetric(dev, "64band-mean-dev")
}

// BenchmarkHwsimMachine measures the structural datapath elaboration
// (per-op cost of the component-level model) and reports SRAM accesses.
func BenchmarkHwsimMachine(b *testing.B) {
	m := hwsim.New(1 << 12)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1<<11; i++ {
		if err := m.Enqueue(hwsim.Word{FlowID: uint32(i), Rank: uint64(rng.Intn(1 << 16))}); err != nil {
			b.Fatal(err)
		}
	}
	id := uint32(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			id++
			_ = m.Enqueue(hwsim.Word{FlowID: id, Rank: uint64(rng.Intn(1 << 16))})
		} else {
			m.Dequeue(0)
		}
	}
	s := m.Stats()
	b.ReportMetric(float64(s.Cycles)/float64(b.N+1<<11), "hwcycles/op")
}

// BenchmarkPacingPrecision regenerates the §1 pacing study and reports
// the software baseline's p99 error (hardware is exactly 0).
func BenchmarkPacingPrecision(b *testing.B) {
	var p99 float64
	for i := 0; i < b.N; i++ {
		tab := experiments.PacingPrecision()
		p99 = mustFloat(b, tab.Rows[1][2])
	}
	b.ReportMetric(p99, "software-p99-err-ns")
}

// BenchmarkWireDecode measures the zero-alloc frame decoder.
func BenchmarkWireDecode(b *testing.B) {
	frame := wire.BuildFrame(wire.FiveTuple{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1234, DstPort: 443, Protocol: wire.ProtoTCP,
	}, 1400)
	var d wire.Decoder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDictionaryOps exercises the §8 dictionary abstraction.
func BenchmarkDictionaryOps(b *testing.B) {
	d := dict.New[uint64](1 << 14)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1<<13; i++ {
		d.Insert(uint64(rng.Intn(1<<30)), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(rng.Intn(1 << 30))
		switch i % 4 {
		case 0:
			d.Insert(k, uint64(i))
		case 1:
			d.Search(k)
		case 2:
			d.Ceiling(k)
		case 3:
			d.Delete(k)
		}
	}
}

// --- Scheduler and hierarchy throughput ---

func BenchmarkSchedulerAlgorithms(b *testing.B) {
	progs := map[string]*sched.Program{
		"fifo": algos.FIFO(),
		"drr":  algos.DRR(),
		"wfq":  algos.WFQ(),
		"wf2q": algos.WF2Q(),
		"sp":   algos.StrictPriority(),
	}
	for name, prog := range progs {
		b.Run(name, func(b *testing.B) {
			s := sched.New(prog, 257, 40)
			for f := 0; f < 256; f++ {
				s.Flow(flowq.FlowID(f)).Priority = uint64(f % 8)
			}
			var seq uint64
			for f := 0; f < 256; f++ {
				for k := 0; k < 8; k++ {
					seq++
					s.OnArrival(0, flowq.Packet{Flow: flowq.FlowID(f), Size: 1500, Seq: seq})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, ok := s.NextPacket(Time(i))
				if !ok {
					b.Fatal("drained")
				}
				seq++
				s.OnArrival(Time(i), flowq.Packet{Flow: p.Flow, Size: 1500, Seq: seq})
			}
		})
	}
}

func BenchmarkHierarchyTwoLevel(b *testing.B) {
	// The §6.3 topology: 10 VMs x 10 flows, TB over WF2Q+.
	h := hier.New(40, hier.TokenBucket())
	id := flowq.FlowID(0)
	var vms []*hier.Node
	for v := 0; v < 10; v++ {
		vm := h.Root().AddNode("vm", hier.WF2Q())
		for f := 0; f < 10; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()
	for _, vm := range vms {
		vm.Self().RateGbps = 3.8
		vm.Self().Burst = 12000
		vm.Self().Tokens = 12000
	}
	var seq uint64
	for f := flowq.FlowID(0); f < 100; f++ {
		for k := 0; k < 4; k++ {
			seq++
			h.OnArrival(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
		}
	}
	b.ResetTimer()
	now := Time(0)
	for i := 0; i < b.N; i++ {
		p, ok := h.NextPacket(now)
		if !ok {
			// All VMs paced out: jump to the next wake.
			if at, ok := h.NextWake(now); ok {
				now = at
				continue
			}
			b.Fatal("hierarchy drained")
		}
		seq++
		h.OnArrival(now, flowq.Packet{Flow: p.Flow, Size: 1500, Seq: seq})
		now += 300
	}
}

// BenchmarkNetsimEndToEnd measures full simulation throughput
// (events/sec) for a WF2Q+ scheduler at 100 flows.
func BenchmarkNetsimEndToEnd(b *testing.B) {
	s := sched.New(algos.WF2Q(), 101, 40)
	sim := netsim.New(netsim.Link{RateGbps: 40}, s)
	var seq uint64
	sim.OnTransmit = func(now Time, p flowq.Packet) {
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 100; f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
		}
	}
	b.ResetTimer()
	// Each iteration simulates one more microsecond of link time.
	for i := 0; i < b.N; i++ {
		sim.Run(Time(i+1) * 1000)
	}
	b.ReportMetric(float64(sim.Sent())/float64(b.N), "pkts/us")
}

func mustFloat(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.Fields(s)[0], 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}
