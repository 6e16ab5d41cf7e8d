package pieo

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/refmodel/conform"
	"pieo/internal/shard"
)

// SyncList, ShardedList and the engine the benchmark names are one type.
var _ *shard.Engine = NewSyncList(1)

func TestSyncListBasics(t *testing.T) {
	l := NewSyncList(16)
	if err := l.Enqueue(Entry{ID: 1, Rank: 10, SendTime: Always}); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	if !l.UpdateRank(1, 5, Always) {
		t.Fatal("UpdateRank failed")
	}
	e, ok := l.Dequeue(0)
	if !ok || e.Rank != 5 {
		t.Fatalf("Dequeue = %v,%v", e, ok)
	}
}

// syncOnCore builds the SyncList the facade hands out: one lock around
// the paper-exact list.
func syncOnCore(n int) backend.Backend { return NewSyncList(n) }

// TestSyncListConformance replays seeded conformance programs on
// SyncList, its one-lock batch path included, under each ID↔rank layout.
func TestSyncListConformance(t *testing.T) {
	for ly := conform.Sequential; ly <= conform.Random; ly++ {
		sh := conform.Shape{Capacity: 64, RankBits: 6, TimeBits: 4, NeverOdds: 17, Layout: ly}
		for seed := int64(0); seed < 4; seed++ {
			conform.Run(t, syncOnCore, sh.Seeded(seed, 20000))
		}
	}
}

// FuzzSyncListConformance runs fuzzer-chosen conformance programs on
// SyncList. Run with `go test -fuzz=FuzzSyncListConformance .`.
func FuzzSyncListConformance(f *testing.F) {
	for ly := conform.Sequential; ly <= conform.Random; ly++ {
		f.Add(conform.Shape{Capacity: 24, RankBits: 4, TimeBits: 3, NeverOdds: 9, Layout: ly}.Seeded(int64(ly), 600))
	}
	conform.Fuzz(f, syncOnCore)
}

// The concurrent tests below run on as many cores as the host has; on
// one core the goroutines interleave at lock boundaries instead. Run
// under -race they check the locking discipline as well as the answers.

// TestSyncListConcurrentConformance runs two conformance programs on one
// SyncList at once, each confined to its own ID range and checked
// against its own spec, for two pairs of ID↔rank layouts. Operations on
// disjoint ranges commute and each range's FIFO order is its program's,
// so every answer must equal the spec's whatever the interleaving, and
// afterwards each range of the snapshot must equal its spec's contents.
func TestSyncListConcurrentConformance(t *testing.T) {
	for _, pair := range []struct {
		seeds  [2]int64
		layout conform.Layout // of the second program
	}{{[2]int64{1, 2}, conform.Banded}, {[2]int64{3, 4}, conform.Random}} {
		programs := []struct {
			base    uint32
			program []byte
		}{
			{0, conform.Shape{Capacity: 96, RankBits: 3, TimeBits: 3, NeverOdds: 16}.Seeded(pair.seeds[0], 20000)},
			{1 << 24, conform.Shape{Capacity: 96, RankBits: 8, TimeBits: 3, Layout: pair.layout}.Seeded(pair.seeds[1], 20000)},
		}
		l := NewSyncList(2 * 96)
		specs := make([][]Entry, len(programs))
		errs := make([]error, len(programs))
		var wg sync.WaitGroup
		for i, p := range programs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				specs[i], errs[i] = conform.Band(l, p.base, p.program)
			}()
		}
		wg.Wait()
		for i, p := range programs {
			if errs[i] != nil {
				t.Fatalf("%v: program at %d: %v", pair.layout, p.base, errs[i])
			}
			var got []Entry
			for _, e := range l.Snapshot() {
				if e.ID >= p.base && e.ID-p.base < 1<<24 {
					got = append(got, e)
				}
			}
			if !slices.Equal(got, specs[i]) {
				t.Fatalf("%v: range at %d holds %v, spec %v", pair.layout, p.base, got, specs[i])
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncListConcurrent hammers the list from many goroutines; the
// totals validate element conservation.
func TestSyncListConcurrent(t *testing.T) {
	const (
		producers   = 8
		perProducer = 500
	)
	l := NewSyncList(producers * perProducer)
	var wg sync.WaitGroup
	var enqueued, dequeued atomic.Int64

	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint32(p*perProducer + i)
				if err := l.Enqueue(Entry{ID: id, Rank: uint64(id % 97), SendTime: Always}); err != nil {
					t.Errorf("enqueue %d: %v", id, err)
					return
				}
				enqueued.Add(1)
			}
		}()
	}
	// Two consumers racing the producers.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dequeued.Load() < producers*perProducer/2 {
				if _, ok := l.Dequeue(0); ok {
					dequeued.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	// Drain the rest single-threaded.
	for {
		if _, ok := l.Dequeue(0); !ok {
			break
		}
		dequeued.Add(1)
	}
	if enqueued.Load() != int64(producers*perProducer) || dequeued.Load() != enqueued.Load() {
		t.Fatalf("enqueued %d, dequeued %d", enqueued.Load(), dequeued.Load())
	}
}

// TestSyncListConcurrentRangeAndSnapshot churns disjoint ID ranges with
// ranged dequeues, re-ranks and re-enqueues while a reader runs every
// query: the count is conserved and the list stays coherent.
func TestSyncListConcurrentRangeAndSnapshot(t *testing.T) {
	l := NewSyncList(1024)
	for i := uint32(0); i < 1024; i++ {
		l.Enqueue(Entry{ID: i, Rank: uint64(i), SendTime: Always})
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := l.Len(); n > 1024 {
				t.Errorf("Len = %d exceeds capacity", n)
				return
			}
			l.Contains(7)
			l.MinSendTime()
			l.NextWakeAfter(0)
			l.PeekMax()
			l.Stats()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := uint32(w * 256)
			for i := 0; i < 200; i++ {
				if e, ok := l.DequeueRange(0, lo, lo+255); ok {
					l.Enqueue(e)
					l.UpdateRank(e.ID, e.Rank+1, Always)
				}
				l.Snapshot()
				l.MinSendTime()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if l.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024 (conservation under churn)", l.Len())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The producer storm. Producers insert while one consumer extracts.
// Every element is always eligible and at one rank, so the only thing
// ordering the drain is the list's FIFO tie-break: one lock makes every
// operation atomic, so each producer's elements — single Enqueue calls
// and whole EnqueueBatch calls alike — must come back in its program
// order, across the live stream and the quiescent drain together.
//
// ID encoding: single-op producer p's i-th element is p*perProducer+i+1;
// batch producer b's elements start at stormBatchBase.
const (
	stormSingles   = 4    // single-op producers
	stormPerSingle = 2500 // elements per single-op producer
	stormBatchers  = 2    // EnqueueBatch producers
	stormBatches   = 40   // batches per batch producer
	stormBatchLen  = 60   // elements per batch
	stormBatchBase = 1 << 20
)

// drainOrder empties l at an always-eligible now and returns the
// extraction order.
func drainOrder(t *testing.T, l *SyncList) []Entry {
	t.Helper()
	var out []Entry
	for {
		e, ok := l.Dequeue(Time(1 << 60))
		if !ok {
			break
		}
		out = append(out, e)
	}
	if l.Len() != 0 {
		t.Fatalf("list reports %d entries after full drain", l.Len())
	}
	return out
}

// consume runs one consumer against l until stop closes and returns its
// in-order stream on done.
func consume(l *SyncList, stop <-chan struct{}) <-chan []Entry {
	done := make(chan []Entry, 1)
	go func() {
		var consumed []Entry
		for {
			select {
			case <-stop:
				done <- consumed
				return
			default:
			}
			if e, ok := l.Dequeue(Always); ok {
				consumed = append(consumed, e)
			}
		}
	}()
	return done
}

// checkProducerFIFO audits program order across the concatenated
// streams: element idx of producer p is stored in ID base+p*per+idx+1,
// and IDs outside [base, base+producers*per] belong to other producers.
func checkProducerFIFO(t *testing.T, base uint32, producers, per int, streams ...[]Entry) {
	t.Helper()
	lastIdx := make([]int, producers)
	for i := range lastIdx {
		lastIdx[i] = -1
	}
	for _, stream := range streams {
		for _, e := range stream {
			if e.ID <= base || e.ID > base+uint32(producers*per) {
				continue
			}
			p := int(e.ID-base-1) / per
			idx := int(e.ID-base-1) % per
			if idx <= lastIdx[p] {
				t.Fatalf("producer %d (IDs from %d): element %d extracted at or before element %d — FIFO violated", p, base, idx, lastIdx[p])
			}
			lastIdx[p] = idx
		}
	}
}

// TestSyncListProducerStorm runs single-op producers and EnqueueBatch
// producers against one consumer, with exact conservation and
// per-producer FIFO for both kinds. A batch is inserted in order under
// one lock hold, so a batch producer's elements keep program order
// element by element, not just batch by batch.
func TestSyncListProducerStorm(t *testing.T) {
	total := stormSingles*stormPerSingle + stormBatchers*stormBatches*stormBatchLen
	l := NewSyncList(2 * total)
	var accepted atomic.Int64
	stop := make(chan struct{})
	done := consume(l, stop)
	var wg sync.WaitGroup
	for p := 0; p < stormSingles; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < stormPerSingle; i++ {
				id := uint32(p*stormPerSingle + i + 1)
				if err := l.Enqueue(Entry{ID: id, Rank: 42, SendTime: Always}); err != nil {
					t.Errorf("producer %d: enqueue %d: %v", p, id, err)
					return
				}
				accepted.Add(1)
			}
		}(p)
	}
	for b := 0; b < stormBatchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for bi := 0; bi < stormBatches; bi++ {
				es := make([]Entry, stormBatchLen)
				for j := range es {
					id := uint32(stormBatchBase + b*stormBatches*stormBatchLen + bi*stormBatchLen + j + 1)
					es[j] = Entry{ID: id, Rank: 42, SendTime: Always}
				}
				n, err := l.EnqueueBatch(es)
				accepted.Add(int64(n))
				if err != nil {
					t.Errorf("batch producer %d batch %d: %v", b, bi, err)
					return
				}
			}
		}(b)
	}
	wg.Wait()
	close(stop)
	consumed := <-done
	if got := accepted.Load(); got != int64(total) {
		t.Fatalf("storm accepted %d of %d", got, total)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	rest := drainOrder(t, l)
	if got := len(consumed) + len(rest); got != total {
		t.Fatalf("extracted %d elements, want %d", got, total)
	}
	checkProducerFIFO(t, 0, stormSingles, stormPerSingle, consumed, rest)
	checkProducerFIFO(t, stormBatchBase, stormBatchers, stormBatches*stormBatchLen, consumed, rest)
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
}

// TestSyncListGrowsPastChunks grows one SyncList from four concurrent
// producers to 10 400 residents, past two of the element arena's
// 4 096-slot chunks, while each producer also takes back every fifth of
// its own arrivals by dequeue(f), so freed slots are reused while chunks
// are appended. Under -race it checks that the chunk table grows only
// under the lock; after it, the list holds exactly the survivors and
// drains them in rank order.
func TestSyncListGrowsPastChunks(t *testing.T) {
	const producers, per = 4, 3250
	l := NewSyncList(producers * per)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < per; i++ {
				id := uint32(p*per + i + 1)
				if err := l.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(1 << 16)), SendTime: Always}); err != nil {
					t.Errorf("producer %d: enqueue %d: %v", p, id, err)
					return
				}
				if i%5 == 4 {
					if _, ok := l.DequeueFlow(id - 2); !ok {
						t.Errorf("producer %d: dequeue(f) of its own id %d missed", p, id-2)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if want := producers * per * 4 / 5; l.Len() != want {
		t.Fatalf("%d residents, want %d", l.Len(), want)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	out := drainOrder(t, l)
	seen := map[uint32]bool{}
	for i, e := range out {
		if i > 0 && e.Rank < out[i-1].Rank {
			t.Fatalf("drain %d: rank %d after %d", i, e.Rank, out[i-1].Rank)
		}
		if seen[e.ID] || (e.ID-1)%per%5 == 2 {
			t.Fatalf("drain %d: id %d extracted twice or after its dequeue(f)", i, e.ID)
		}
		seen[e.ID] = true
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncListBatchStorm runs EnqueueBatch producers against DequeueUpTo
// consumers: every element batch-enqueued is batch-dequeued exactly
// once.
func TestSyncListBatchStorm(t *testing.T) {
	const (
		producers = 4
		consumers = 2
		perProd   = 2000
		batchSize = 32
	)
	l := NewSyncList(producers * perProd)
	var dequeued atomic.Int64
	var seen sync.Map

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Entry, 0, batchSize)
			for i := 0; i < perProd; i++ {
				id := uint32(p*perProd + i)
				batch = append(batch, Entry{ID: id, Rank: uint64(id % 97), SendTime: 0})
				if len(batch) == batchSize || i == perProd-1 {
					if n, err := l.EnqueueBatch(batch); n != len(batch) || err != nil {
						t.Errorf("producer %d: EnqueueBatch = %d,%v", p, n, err)
						return
					}
					batch = batch[:0]
				}
			}
		}(p)
	}
	done := make(chan struct{})
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			out := make([]Entry, 0, batchSize)
			for {
				out = l.DequeueUpTo(0, batchSize, out[:0])
				for _, e := range out {
					if _, dup := seen.LoadOrStore(e.ID, true); dup {
						t.Errorf("id %d dequeued twice", e.ID)
						return
					}
					dequeued.Add(1)
				}
				if len(out) == 0 {
					select {
					case <-done:
						if l.Len() == 0 {
							return
						}
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	cwg.Wait()

	if got := dequeued.Load(); got != producers*perProd {
		t.Fatalf("dequeued %d elements, want %d", got, producers*perProd)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncListHoldOrder is the benchmark's contended hold loop, checked
// for order: two workers share one list, each dequeuing the minimum and
// enqueuing a fresh element of its own, its ranks never decreasing and
// often tied. Within one origin — the prefill, all enqueued before the
// first dequeue, or one worker — IDs follow enqueue order, so of two
// elements the one smaller in (rank, ID) is also smaller in the list's
// (rank, FIFO) order and was resident when the other was taken. A
// linearizable list hands out its minimum, so no worker may see an
// origin's (rank, ID) decrease. A list that let a dequeue race past a
// resident minimum, or broke FIFO among equal ranks, fails here.
func TestSyncListHoldOrder(t *testing.T) {
	const (
		prefill = 1024
		pairs   = 20000
		span    = 1 << 10
		workers = 2
	)
	l := NewSyncList(2 * prefill)
	rng := rand.New(rand.NewSource(1))
	in := map[uint32]bool{}
	for id := uint32(0); id < prefill; id++ {
		if err := l.Enqueue(Entry{ID: id, Rank: uint64(rng.Intn(span)), SendTime: Always}); err != nil {
			t.Fatal(err)
		}
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
			last := map[int]Entry{}
			var clk uint64
			for i := 0; i < pairs; i++ {
				e, ok := l.Dequeue(0)
				if !ok {
					t.Errorf("worker %d: empty dequeue at pair %d", w, i)
					return
				}
				o := origin(e.ID)
				if prev, seen := last[o]; seen && (e.Rank < prev.Rank || e.Rank == prev.Rank && e.ID < prev.ID) {
					t.Errorf("worker %d: origin %d yielded %v after %v", w, o, e, prev)
					return
				}
				last[o] = e
				outs[w] = append(outs[w], e.ID)
				clk = max(clk, e.Rank+uint64(r.Intn(span)))
				id := prefill + uint32(w+workers*i)
				if err := l.Enqueue(Entry{ID: id, Rank: clk, SendTime: Always}); err != nil {
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
	snap := l.Snapshot()
	for _, e := range snap {
		if !in[e.ID] {
			t.Fatalf("resident id %d dequeued or never enqueued", e.ID)
		}
	}
	if len(snap) != len(in) || len(snap) != prefill {
		t.Fatalf("%d resident, %d unaccounted, want %d", len(snap), len(in), prefill)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncListCapacity hammers a small capacity from many producers that
// also dequeue: successes net of dequeues must equal the occupancy, and
// the occupancy may never overshoot.
func TestSyncListCapacity(t *testing.T) {
	const capacity = 32
	l := NewSyncList(capacity)
	var successes atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := uint32(p*1000 + i)
				switch err := l.Enqueue(Entry{ID: id, Rank: uint64(i), SendTime: Always}); err {
				case nil:
					successes.Add(1)
				case ErrFull:
				default:
					t.Errorf("Enqueue(%d) = %v", id, err)
					return
				}
				if i%4 == 0 {
					if _, ok := l.Dequeue(0); ok {
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
	if got := l.Len(); int64(got) != successes.Load() || got > capacity {
		t.Fatalf("Len = %d, net successful enqueues = %d, capacity %d", got, successes.Load(), capacity)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
