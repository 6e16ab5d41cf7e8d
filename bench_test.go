// Benchmarks: software-cost instruments — one per question — for the PIEO
// primitive operations, the scheduler framework, the hierarchy and the
// packet path. The paper's tables and figures are reproduced by
// cmd/pieobench, not here.
//
// Run with: go test -run '^$' -bench . -benchmem
package pieo

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"pieo/internal/algos"
	"pieo/internal/dict"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/netsim"
	"pieo/internal/policy"
	"pieo/internal/sched"
	"pieo/internal/wire"
)

// --- PIEO primitive micro-benchmarks (§6.2 scheduling rate) ---

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
// refresh) that the CHANGES.md entry "allocation-free, search-accelerated
// core datapath" measured. Sizes deliberately bracket the paper's 30K
// operating point and extend to 2^19, where the √n sublist geometry
// makes sequential scans expensive enough to matter.

func coreBenchSizes() []int { return []int{1 << 10, 30000, 1 << 19} }

// coreBenchBackend is the backend measured uncontended; its name stays in
// the sub-benchmark names so recorded numbers remain comparable. The flat
// reference model is excluded: its O(n) scans at 2^19 would take minutes
// per benchmark.
const coreBenchBackend = "core"

// warmBackend builds a half-full backend of capacity n with uniformly
// random ranks, all eligible.
func warmBackend(b *testing.B, n int) (Backend, *rand.Rand) {
	be, err := NewBackend(coreBenchBackend, n)
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
	for _, n := range coreBenchSizes() {
		b.Run(fmt.Sprintf("backend=%s/n=%d", coreBenchBackend, n), func(b *testing.B) {
			be, rng := warmBackend(b, n)
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

func BenchmarkCoreDequeue(b *testing.B) {
	for _, n := range coreBenchSizes() {
		b.Run(fmt.Sprintf("backend=%s/n=%d", coreBenchBackend, n), func(b *testing.B) {
			be, rng := warmBackend(b, n)
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

// BenchmarkCoreMixed alternates enqueue and dequeue at steady-state
// half-occupancy — the headline shape of the CHANGES.md entry
// "allocation-free, search-accelerated core datapath".
func BenchmarkCoreMixed(b *testing.B) {
	for _, n := range coreBenchSizes() {
		b.Run(fmt.Sprintf("backend=%s/n=%d", coreBenchBackend, n), func(b *testing.B) {
			be, rng := warmBackend(b, n)
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

// BenchmarkCoreMixedBatch is BenchmarkCoreMixed through the batch APIs:
// 64-entry EnqueueBatch alternating with DequeueUpTo(64), measuring the
// per-element amortization the backend.Batcher capability buys.
func BenchmarkCoreMixedBatch(b *testing.B) {
	const batch = 64
	for _, n := range coreBenchSizes() {
		b.Run(fmt.Sprintf("backend=%s/n=%d", coreBenchBackend, n), func(b *testing.B) {
			be, rng := warmBackend(b, n)
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

// BenchmarkSparseEligibility pins the sparse-eligibility regime: a
// 2^19-element backlog of paced flows where under 1% are eligible at any
// instant, driven through the Carousel wake->dispatch round — a dequeue
// probe that misses (sparse eligibility makes this the common case), the
// next-release query, and the dispatch+re-arm at the promised instant.
// Both backends answer from the Ordered-Sublist-Array's eligibility
// summaries. The CHANGES.md entry "one time index in `core.List`, not
// two" records reference numbers.
func BenchmarkSparseEligibility(b *testing.B) {
	const n = 1 << 19
	b.Run(fmt.Sprintf("backend=%s/n=%d", coreBenchBackend, n), func(b *testing.B) {
		be, err := NewBackend(coreBenchBackend, n)
		if err != nil {
			b.Fatal(err)
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
			wake := be.NextWakeAfter(now)
			if wake == Never {
				b.Fatal("backlogged backend reported no next release")
			}
			now = wake
		}
	})
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

// Capacity 1<<19 makes √n sublist scans and shifts dominate the mutex
// hold time. SyncList and ShardedList are one type, one mutex around one
// list, so this one benchmark covers both. Steady state holds the
// list at capacity, so run with a benchtime well above the fill
// transient (b.N >= ~4x capacity, e.g. -benchtime 10s) when comparing
// backends. DESIGN.md ("Why there is no concurrent engine") records the
// 2-vCPU trials.
func BenchmarkSyncListContended(b *testing.B) {
	benchContended(b, NewSyncList(1<<19))
}

// --- Footprint pins: what a capacity costs before it is used ---

// BenchmarkConstruct is ns/op and B/op to build an empty backend: capacity
// is a bound, so neither may scale with it (CHANGES.md, "capacity is a
// bound, not an allocation").
func BenchmarkConstruct(b *testing.B) {
	for _, c := range []struct {
		name string
		new  func() any
	}{
		{"core-2^19", func() any { return NewList(1 << 19) }},
		{"synclist-2^19", func() any { return NewSyncList(1 << 19) }},
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
		})
	}
}

// BenchmarkAblationTriggerModel compares the dequeue-path cost of
// output- vs input-triggered pacing (§3.2.1).
func BenchmarkAblationTriggerModel(b *testing.B) {
	progs := map[string]*sched.Program{
		"output": sched.FromPolicy(&policy.Policy{
			Name: "pace-output",
			Rank: func(n *policy.Node, now Time, a *policy.Attrs, head flowq.Packet, backlog uint64) {
				a.Rank = uint64(head.SendAt)
				a.SendTime = head.SendAt
			},
		}),
		"input": algos.Pacer(),
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
	h := hier.New(40, policy.TokenBucket())
	id := flowq.FlowID(0)
	var vms []*hier.Node
	for v := 0; v < 10; v++ {
		vm := h.Root().AddNode("vm", policy.WF2Q())
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
