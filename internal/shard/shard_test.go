package shard_test

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel/conform"
	"pieo/internal/shard"
)

// The engine implements the whole contract plus hardware accounting, and
// the peek and inert index methods the benchmark's wrapper forwards.
var (
	_ backend.Backend         = (*shard.Engine)(nil)
	_ backend.Peeker          = (*shard.Engine)(nil)
	_ backend.EligIndexed     = (*shard.Engine)(nil)
	_ backend.HardwareModeled = (*shard.Engine)(nil)
)

// TestShardCountIsInert drives one program through engines of every
// accepted shard count and through a bare core list of the same
// capacity: every answer, the Snapshot, Stats and HardwareStats must be
// identical, because the geometry is core's whatever k is. A shard count
// outside [0, 64] is refused.
func TestShardCountIsInert(t *testing.T) {
	const n = 512
	program := conform.Shape{Capacity: n, RankBits: 7, TimeBits: 4, NeverOdds: 13}.Seeded(5, 30000)
	for _, k := range []int{0, 1, 8, 64} {
		e, l := shard.New(n, k), backend.NewCoreList(n)
		if err := conform.Check(e, l, program); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, now := range []clock.Time{0, 7, clock.Never} {
			got, gotOK := e.Peek(now)
			want, wantOK := l.Peek(now)
			if got != want || gotOK != wantOK {
				t.Fatalf("k=%d: Peek(%d) = %v,%v, core %v,%v", k, now, got, gotOK, want, wantOK)
			}
		}
		if got, want := e.HardwareStats(), l.HardwareStats(); got != want {
			t.Fatalf("k=%d: HardwareStats %+v, core %+v", k, got, want)
		}
		if got, want := e.Snapshot(), l.Snapshot(); !slices.Equal(got, want) {
			t.Fatalf("k=%d: Snapshot differs from core's", k)
		}
	}
	for _, k := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) accepted the shard count", n, k)
				}
			}()
			shard.New(n, k)
		}()
	}
}

// TestDefaultShardCount: the registry builds "sharded" as an engine
// with the default shard count, that count and the zero count are
// accepted, and every accepted count does the same hardware work as a
// bare core list of the same capacity.
func TestDefaultShardCount(t *testing.T) {
	const n = 64
	b, err := backend.New("sharded", n)
	if err != nil {
		t.Fatal(err)
	}
	reg, ok := b.(*shard.Engine)
	if !ok {
		t.Fatalf("registry built %T for \"sharded\", want *shard.Engine", b)
	}
	run := func(b backend.Backend) {
		for id := uint32(0); id < n; id++ {
			must(t, b.Enqueue(core.Entry{ID: id, Rank: uint64(id*7) % 13, SendTime: clock.Time(id % 5)}))
		}
		for i := 0; i < n/2; i++ {
			b.Dequeue(clock.Time(i % 6))
		}
	}
	l := backend.NewCoreList(n)
	run(l)
	engines := map[string]*shard.Engine{
		"registry": reg,
		"k=0":      shard.New(n, 0),
		"k=3":      shard.New(n, 3),
		"default":  shard.New(n, shard.DefaultShards),
	}
	for name, e := range engines {
		run(e)
		if got, want := e.HardwareStats(), l.HardwareStats(); got != want {
			t.Fatalf("%s: HardwareStats %+v, core %+v", name, got, want)
		}
	}
}

// TestEnqueuePhantomLossCounter: a refused arrival is not a loss. Single
// enqueues refused as full or duplicate, and the refused tail of a batch
// at capacity, leave Len exact and FaultStats at zero, and the drain
// returns exactly what was accepted.
func TestEnqueuePhantomLossCounter(t *testing.T) {
	e := shard.New(4, 1)
	must(t, e.Enqueue(core.Entry{ID: 1, Rank: 10}))
	if err := e.Enqueue(core.Entry{ID: 1, Rank: 20}); !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("duplicate Enqueue = %v, want ErrDuplicate", err)
	}
	n, err := e.EnqueueBatch([]core.Entry{{ID: 2, Rank: 20}, {ID: 3, Rank: 30}, {ID: 4, Rank: 40}, {ID: 5, Rank: 50}})
	if n != 3 || !errors.Is(err, core.ErrFull) {
		t.Fatalf("EnqueueBatch at capacity = %d,%v, want 3,ErrFull", n, err)
	}
	if err := e.Enqueue(core.Entry{ID: 6, Rank: 60}); !errors.Is(err, core.ErrFull) {
		t.Fatalf("Enqueue when full = %v, want ErrFull", err)
	}
	if fs := e.FaultStats(); fs != (shard.FaultStats{}) {
		t.Fatalf("FaultStats = %+v, want zero: the refused arrivals were rejected, not lost", fs)
	}
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint32{1, 2, 3, 4} {
		if got, ok := e.Dequeue(clock.Never - 1); !ok || got.ID != want {
			t.Fatalf("drain = %+v/%v, want id %d", got, ok, want)
		}
	}
	if e.Len() != 0 || e.FaultStats() != (shard.FaultStats{}) {
		t.Fatalf("after the drain: Len %d, FaultStats %+v", e.Len(), e.FaultStats())
	}
}

func TestCrossShardRankOrder(t *testing.T) {
	// Sequential IDs scatter across shards under the mixing hash; draining
	// must still produce global rank order with FIFO ties.
	e := shard.New(128, 8)
	for id := uint32(0); id < 100; id++ {
		rank := uint64(id % 10) // ten FIFO classes spread over all shards
		if err := e.Enqueue(core.Entry{ID: id, Rank: rank, SendTime: clock.Always}); err != nil {
			t.Fatal(err)
		}
	}
	var prev core.Entry
	lastIDByRank := map[uint64]uint32{}
	for i := 0; i < 100; i++ {
		ent, ok := e.Dequeue(0)
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		if i > 0 && ent.Rank < prev.Rank {
			t.Fatalf("rank order violated: %v after %v", ent, prev)
		}
		if last, seen := lastIDByRank[ent.Rank]; seen && ent.ID < last {
			t.Fatalf("FIFO violated within rank %d: id %d after %d", ent.Rank, ent.ID, last)
		}
		lastIDByRank[ent.Rank] = ent.ID
		prev = ent
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after drain", e.Len())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEligibilityAcrossShards(t *testing.T) {
	// The lowest-ranked element is ineligible; the engine must serve the
	// best eligible one, then pick up the blocked element once time
	// passes.
	e := shard.New(16, 4)
	must(t, e.Enqueue(core.Entry{ID: 1, Rank: 1, SendTime: 100}))
	must(t, e.Enqueue(core.Entry{ID: 2, Rank: 5, SendTime: clock.Always}))
	if ent, ok := e.Dequeue(0); !ok || ent.ID != 2 {
		t.Fatalf("Dequeue(0) = %v,%v, want id 2", ent, ok)
	}
	if _, ok := e.Dequeue(99); ok {
		t.Fatal("id 1 served before its send time")
	}
	if ent, ok := e.Dequeue(100); !ok || ent.ID != 1 {
		t.Fatalf("Dequeue(100) = %v,%v, want id 1", ent, ok)
	}
}

func TestSharedCapacityAndDuplicates(t *testing.T) {
	// Capacity is a property of the engine, not of any one shard: n
	// elements must fill it regardless of how the hash spreads them.
	const n = 10
	e := shard.New(n, 4)
	for id := uint32(0); id < n; id++ {
		must(t, e.Enqueue(core.Entry{ID: id, Rank: uint64(id), SendTime: clock.Always}))
	}
	if err := e.Enqueue(core.Entry{ID: 999, Rank: 0, SendTime: clock.Always}); err != core.ErrFull {
		t.Fatalf("over-capacity enqueue = %v, want ErrFull", err)
	}
	// Full wins over duplicate, exactly like a single list.
	if err := e.Enqueue(core.Entry{ID: 3, Rank: 0, SendTime: clock.Always}); err != core.ErrFull {
		t.Fatalf("full+duplicate enqueue = %v, want ErrFull", err)
	}
	if _, ok := e.DequeueFlow(3); !ok {
		t.Fatal("DequeueFlow(3) failed")
	}
	if err := e.Enqueue(core.Entry{ID: 4, Rank: 0, SendTime: clock.Always}); err != core.ErrDuplicate {
		t.Fatalf("duplicate enqueue = %v, want ErrDuplicate", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDequeueRangeTouchesRightShards(t *testing.T) {
	e := shard.New(64, 8)
	for id := uint32(0); id < 32; id++ {
		must(t, e.Enqueue(core.Entry{ID: id, Rank: uint64(32 - id), SendTime: clock.Always}))
	}
	// Smallest rank within [0,7] is id 7 (rank 25).
	if ent, ok := e.DequeueRange(0, 0, 7); !ok || ent.ID != 7 {
		t.Fatalf("DequeueRange = %v,%v, want id 7", ent, ok)
	}
	if e.Contains(7) {
		t.Fatal("id 7 still present after range dequeue")
	}
	if e.Len() != 31 {
		t.Fatalf("Len = %d, want 31", e.Len())
	}
}

func TestUpdateRankMovesElement(t *testing.T) {
	e := shard.New(16, 4)
	must(t, e.Enqueue(core.Entry{ID: 1, Rank: 10, SendTime: clock.Always}))
	must(t, e.Enqueue(core.Entry{ID: 2, Rank: 20, SendTime: clock.Always}))
	if !e.UpdateRank(2, 5, clock.Always) {
		t.Fatal("UpdateRank(2) failed")
	}
	if e.UpdateRank(99, 1, clock.Always) {
		t.Fatal("UpdateRank on absent id succeeded")
	}
	if ent, ok := e.Dequeue(0); !ok || ent.ID != 2 || ent.Rank != 5 {
		t.Fatalf("Dequeue = %v,%v, want re-ranked id 2", ent, ok)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMinSendTimeFromSummaries(t *testing.T) {
	e := shard.New(16, 4)
	if _, ok := e.MinSendTime(); ok {
		t.Fatal("MinSendTime on empty engine reported a value")
	}
	must(t, e.Enqueue(core.Entry{ID: 1, Rank: 1, SendTime: 500}))
	must(t, e.Enqueue(core.Entry{ID: 2, Rank: 2, SendTime: 200}))
	must(t, e.Enqueue(core.Entry{ID: 3, Rank: 3, SendTime: 900}))
	if ts, ok := e.MinSendTime(); !ok || ts != 200 {
		t.Fatalf("MinSendTime = %v,%v, want 200", ts, ok)
	}
	if _, ok := e.DequeueFlow(2); !ok {
		t.Fatal("DequeueFlow(2) failed")
	}
	if ts, ok := e.MinSendTime(); !ok || ts != 500 {
		t.Fatalf("MinSendTime after removal = %v,%v, want 500", ts, ok)
	}
}

// TestNextEligibleWakeup is the eligibility-index regression test: a
// miss raises the bound, an insert of an eligible element must lower it
// back (the wake-up), and the future element surfaces exactly when its
// send time arrives.
func TestNextEligibleWakeup(t *testing.T) {
	e := shard.New(64, 8)
	must(t, e.Enqueue(core.Entry{ID: 1, Rank: 5, SendTime: 100}))
	if _, ok := e.Dequeue(10); ok {
		t.Fatal("dequeued an ineligible element")
	}
	if _, ok := e.Peek(10); ok {
		t.Fatal("peeked an ineligible element")
	}
	// The miss above raised the next-eligible bound to 100. A fresh
	// eligible insert must tighten it back down or this dequeue would
	// wrongly take the empty fast path.
	must(t, e.Enqueue(core.Entry{ID: 2, Rank: 7, SendTime: 0}))
	ent, ok := e.Dequeue(10)
	if !ok || ent.ID != 2 {
		t.Fatalf("dequeue after wake-up: ok=%v ent=%+v, want id 2", ok, ent)
	}
	if _, ok := e.Dequeue(10); ok {
		t.Fatal("dequeued the future element early")
	}
	ent, ok = e.Dequeue(100)
	if !ok || ent.ID != 1 {
		t.Fatalf("dequeue at send time: ok=%v ent=%+v, want id 1", ok, ent)
	}
	if s := e.Stats(); s.EmptyDequeues < 2 {
		t.Fatalf("EmptyDequeues = %d, want >= 2", s.EmptyDequeues)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestNextEligibleUpdateRankWakeup covers the re-rank path: an update
// that moves an element's send time earlier must tighten the bound.
func TestNextEligibleUpdateRankWakeup(t *testing.T) {
	e := shard.New(64, 8)
	must(t, e.Enqueue(core.Entry{ID: 1, Rank: 5, SendTime: 100}))
	if _, ok := e.Dequeue(10); ok { // raise the bound to 100
		t.Fatal("dequeued an ineligible element")
	}
	if !e.UpdateRank(1, 5, 0) {
		t.Fatal("update rank failed")
	}
	if ent, ok := e.Dequeue(10); !ok || ent.ID != 1 {
		t.Fatalf("dequeue after re-rank wake-up: ok=%v ent=%+v", ok, ent)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestConcurrentProducersOneConsumer runs parallel producers and one
// consumer under the race detector: every element delivered exactly once
// and the structure intact afterwards.
func TestConcurrentProducersOneConsumer(t *testing.T) {
	const (
		producers   = 8
		perProducer = 500
		total       = producers * perProducer
	)
	e := shard.New(total, 8)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint32(p*perProducer + i)
				if err := e.Enqueue(core.Entry{ID: id, Rank: uint64(id % 97), SendTime: clock.Always}); err != nil {
					t.Errorf("Enqueue(%d) = %v", id, err)
					return
				}
			}
		}(p)
	}

	seen := make([]bool, total)
	var got int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got < total {
			ent, ok := e.Dequeue(0)
			if !ok {
				continue
			}
			if seen[ent.ID] {
				t.Errorf("id %d delivered twice", ent.ID)
				return
			}
			seen[ent.ID] = true
			got++
		}
	}()
	wg.Wait()
	<-done

	if t.Failed() {
		return
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after full drain", e.Len())
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("id %d never delivered", id)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Enqueues != total || st.Dequeues != total {
		t.Fatalf("stats = %+v, want %d enqueues and dequeues", st, total)
	}
}

// TestConcurrentMixedOps drives every operation class at once; its only
// assertions are capacity safety and post-quiescence coherence — the
// real check is the race detector over this interleaving.
func TestConcurrentMixedOps(t *testing.T) {
	const capacity = 256
	e := shard.New(capacity, 8)
	var next atomic.Uint32
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := next.Add(1)
				err := e.Enqueue(core.Entry{ID: id, Rank: uint64(id % 31), SendTime: clock.Time(id % 4)})
				if err != nil && err != core.ErrFull {
					t.Errorf("Enqueue(%d) = %v", id, err)
					return
				}
				if id%7 == 0 {
					e.UpdateRank(id, uint64(id%13), clock.Always)
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				e.Dequeue(clock.Time(i % 8))
				if i%3 == 0 {
					e.DequeueRange(clock.Never-1, uint32(i%64), uint32(i%64)+32)
				}
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := e.Len(); n > capacity {
				t.Errorf("Len = %d exceeds capacity %d", n, capacity)
				return
			}
			e.MinSendTime()
			e.Peek(clock.Never - 1)
			e.Snapshot()
			e.Stats()
		}
	}()

	wg.Wait()
	// Producers and consumers are done; halt the reader.
	close(stop)
	<-readerDone
	if t.Failed() {
		return
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCapacityNeverExceeded hammers a small shared capacity
// from many producers: successes plus current occupancy must track
// exactly, and occupancy may never overshoot.
func TestConcurrentCapacityNeverExceeded(t *testing.T) {
	const capacity = 32
	e := shard.New(capacity, 8)
	var successes atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint32(p*1000 + i)
				switch err := e.Enqueue(core.Entry{ID: id, Rank: uint64(i), SendTime: clock.Always}); err {
				case nil:
					successes.Add(1)
				case core.ErrFull:
				default:
					t.Errorf("Enqueue(%d) = %v", id, err)
					return
				}
				if i%4 == 0 {
					if _, ok := e.Dequeue(0); ok {
						successes.Add(-1)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := e.Len(); int64(got) != successes.Load() {
		t.Fatalf("Len = %d, net successful enqueues = %d", got, successes.Load())
	}
	if e.Len() > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", e.Len(), capacity)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCombiningAPIIsInert: the engine has no rings, so after concurrent
// traffic asking for combining changes nothing — it still reports
// disabled and every ring counter reads zero.
func TestCombiningAPIIsInert(t *testing.T) {
	e := shard.New(1<<12, 8)
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := uint32(w*perWorker + i + 1)
				if err := e.Enqueue(core.Entry{ID: id, Rank: uint64(i), SendTime: clock.Always}); err != nil {
					t.Errorf("enqueue %d: %v", id, err)
					return
				}
				switch i % 4 {
				case 1:
					e.UpdateRank(id, uint64(i+7), clock.Always)
				case 2:
					e.DequeueFlow(id)
				case 3:
					e.Dequeue(clock.Always)
				}
			}
		}(w)
	}
	wg.Wait()
	e.SetCombining(true)
	if e.CombiningEnabled() {
		t.Fatal("CombiningEnabled() = true after SetCombining(true); the engine has no rings")
	}
	if cs := e.CombiningStats(); cs != (backend.CombiningStats{}) {
		t.Fatalf("CombiningStats() = %+v, want zero", cs)
	}
	if s := e.Stats(); s.RingOps != 0 || s.CombinedOps != 0 {
		t.Fatalf("Stats ring counters %d/%d, want zero", s.RingOps, s.CombinedOps)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentConformance runs two conformance programs on one engine
// at once, each confined to its own ID range and checked against its own
// spec. Operations on disjoint ranges commute, so every answer must equal
// the spec's whatever the interleaving, and afterwards each range of the
// snapshot must equal its spec's contents.
func TestConcurrentConformance(t *testing.T) {
	programs := []struct {
		base    uint32
		program []byte
	}{
		{0, conform.Shape{Capacity: 96, RankBits: 3, TimeBits: 3, NeverOdds: 16}.Seeded(3, 20000)},
		{1 << 24, conform.Shape{Capacity: 96, RankBits: 8, TimeBits: 3, Layout: conform.Random}.Seeded(4, 20000)},
	}
	e := shard.New(2*96, shard.DefaultShards)
	specs := make([][]core.Entry, len(programs))
	errs := make([]error, len(programs))
	var wg sync.WaitGroup
	for i, p := range programs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			specs[i], errs[i] = conform.Band(e, p.base, p.program)
		}()
	}
	wg.Wait()
	for i, p := range programs {
		if errs[i] != nil {
			t.Fatalf("program at %d: %v", p.base, errs[i])
		}
		var got []core.Entry
		for _, ent := range e.Snapshot() {
			if ent.ID >= p.base && ent.ID-p.base < 1<<24 {
				got = append(got, ent)
			}
		}
		if !slices.Equal(got, specs[i]) {
			t.Fatalf("range at %d holds %v, spec %v", p.base, got, specs[i])
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHoldOrder is the benchmark's contended hold loop, checked
// for order: two workers share one engine, each dequeuing the minimum
// and enqueuing a fresh element of its own, its ranks never decreasing
// and often tied. Within one origin — the prefill, all enqueued before
// the first dequeue, or one worker — IDs follow enqueue order, so of two
// elements the one smaller in (rank, ID) is also smaller in the list's
// (rank, FIFO) order and was resident when the other was taken. A
// linearizable list hands out its minimum, so no worker may see an
// origin's (rank, ID) decrease. A list that let a dequeue race past a
// resident minimum, or broke FIFO among equal ranks, fails here.
func TestConcurrentHoldOrder(t *testing.T) {
	const (
		prefill = 1024
		pairs   = 20000
		span    = 1 << 10
		workers = 2
	)
	e := shard.New(2*prefill, shard.DefaultShards)
	rng := rand.New(rand.NewSource(1))
	in := map[uint32]bool{}
	for id := uint32(0); id < prefill; id++ {
		must(t, e.Enqueue(core.Entry{ID: id, Rank: uint64(rng.Intn(span)), SendTime: clock.Always}))
		in[id] = true
	}
	origin := func(id uint32) int { // -1 for the prefill, else the enqueuing worker
		if id < prefill {
			return -1
		}
		return int(id-prefill) % workers
	}
	outs := make([][]uint32, workers)
	ins := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 2))
			last := map[int]core.Entry{}
			var clk uint64
			for i := 0; i < pairs; i++ {
				ent, ok := e.Dequeue(0)
				if !ok {
					t.Errorf("worker %d: empty dequeue at pair %d", w, i)
					return
				}
				o := origin(ent.ID)
				if prev, seen := last[o]; seen && (ent.Rank < prev.Rank || ent.Rank == prev.Rank && ent.ID < prev.ID) {
					t.Errorf("worker %d: origin %d yielded %v after %v", w, o, ent, prev)
					return
				}
				last[o] = ent
				outs[w] = append(outs[w], ent.ID)
				clk = max(clk, ent.Rank+uint64(r.Intn(span)))
				id := prefill + uint32(w+workers*i)
				if err := e.Enqueue(core.Entry{ID: id, Rank: clk, SendTime: clock.Always}); err != nil {
					t.Errorf("worker %d: enqueue: %v", w, err)
					return
				}
				ins[w] = append(ins[w], id)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Conservation: what went in is what came out plus what is resident.
	for w := range ins {
		for _, id := range ins[w] {
			in[id] = true
		}
	}
	for w := range outs {
		for _, id := range outs[w] {
			if !in[id] {
				t.Fatalf("id %d dequeued twice or never enqueued", id)
			}
			delete(in, id)
		}
	}
	snap := e.Snapshot()
	for _, ent := range snap {
		if !in[ent.ID] {
			t.Fatalf("resident id %d dequeued or never enqueued", ent.ID)
		}
	}
	if len(snap) != len(in) || len(snap) != prefill {
		t.Fatalf("%d resident, %d unaccounted, want %d", len(snap), len(in), prefill)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
