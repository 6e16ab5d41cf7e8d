package shard_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
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

func TestDefaultShardCount(t *testing.T) {
	if got := shard.New(64, 0).NumShards(); got != shard.DefaultShards {
		t.Fatalf("New(64, 0) = %d shards, want %d", got, shard.DefaultShards)
	}
	if got := shard.New(64, 3).NumShards(); got != 3 {
		t.Fatalf("New(64, 3) = %d shards, want 3", got)
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
	// The lowest-ranked element is ineligible; the tournament must skip
	// its shard and serve the best eligible one, then pick up the blocked
	// element once time passes.
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

// TestConcurrentProducersOneConsumer is the engine's reason to exist run
// under the race detector: parallel producers, one consumer, every
// element delivered exactly once and the structure intact afterwards.
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

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
