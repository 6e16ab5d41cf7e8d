package shard

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// The locked-path storms. TestSameRankFIFOStorm runs anywhere; the
// genuinely-parallel storms require real core parallelism, so producers
// take shard locks WHILE the consumer's tournament probes them on
// another core and the summary publish/prune orderings are actually
// exercised — under -race the strongest coverage the engine's
// cross-core protocol gets. They run wherever two cores exist: the
// consumer takes one and the producer count follows the rest
// (stormProducers), up to the full 4 + 2 shape on seven or more.
//
// ID encoding: single-op producer p's i-th element is p*perSingle+i+1
// (low range); batch producers use IDs at or above batchIDBase so the
// FIFO audit can scope itself to streams where program order is
// well-defined through a quarantine (a mid-batch reroute legitimately
// re-draws sequence numbers out of batch order — see EnqueueBatch).

// pStormSingles single-op producers (FIFO-audited) and pStormBatchers
// EnqueueBatch producers run against one consumer.
var pStormSingles, pStormBatchers = stormProducers(runtime.NumCPU())

const (
	pStormPerSingle = 2500 // elements per single-op producer
	pStormBatches   = 40   // batches per batch producer
	pStormBatchLen  = 60   // elements per batch (multi-shard)
	batchIDBase     = 1 << 20
)

// stormProducers sizes the storm for a host with cpus cores: one core is
// the consumer's, the others carry up to six producers, a third of them
// batch producers. Both paths keep at least one producer, so on two
// cores three goroutines share two — still a producer inserting while
// the consumer extracts.
func stormProducers(cpus int) (singles, batchers int) {
	n := min(cpus-1, 6)
	batchers = max(n/3, 1)
	return max(n-batchers, 1), batchers
}

func requireParallelHost(t *testing.T) {
	t.Helper()
	if os.Getenv("PIEO_FORCE_PARALLEL_STORM") != "" {
		return // run time-shared anyway (correctness still holds; parallelism doesn't)
	}
	if n := runtime.NumCPU(); n < 2 {
		t.Skipf("host has %d CPU; the parallel storm needs >= 2 to run a producer and the consumer on distinct cores (see README) — skipping", n)
	}
}

// drainOrder empties the engine at an always-eligible now and returns
// the extraction order.
func drainOrder(t *testing.T, e *Engine) []core.Entry {
	t.Helper()
	var out []core.Entry
	for {
		ent, ok := e.Dequeue(clock.Time(1 << 60))
		if !ok {
			break
		}
		out = append(out, ent)
	}
	if e.Len() != 0 {
		t.Fatalf("engine reports %d entries after full drain", e.Len())
	}
	return out
}

// parallelStorm drives the shared storm shape: pStormSingles single-op
// producers and pStormBatchers batch producers against one consumer,
// every element at the same rank and always eligible. It returns the
// consumer's in-order stream and the accepted count.
func parallelStorm(t *testing.T, e *Engine, onSingleOp func(p, i int)) (consumed []core.Entry, accepted int64) {
	t.Helper()
	var acceptedN atomic.Int64
	stop := make(chan struct{})
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ent, ok := e.Dequeue(clock.Always); ok {
				consumed = append(consumed, ent)
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < pStormSingles; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < pStormPerSingle; i++ {
				if onSingleOp != nil {
					onSingleOp(p, i)
				}
				id := uint32(p*pStormPerSingle + i + 1)
				if err := e.Enqueue(core.Entry{ID: id, Rank: 42, SendTime: clock.Always}); err == nil {
					acceptedN.Add(1)
				}
			}
		}(p)
	}
	for b := 0; b < pStormBatchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for bi := 0; bi < pStormBatches; bi++ {
				es := make([]core.Entry, pStormBatchLen)
				for j := range es {
					id := uint32(batchIDBase + b*pStormBatches*pStormBatchLen + bi*pStormBatchLen + j + 1)
					es[j] = core.Entry{ID: id, Rank: 42, SendTime: clock.Always}
				}
				n, err := e.EnqueueBatch(es)
				acceptedN.Add(int64(n))
				if err != nil && !errors.Is(err, core.ErrShardDown) && !errors.Is(err, core.ErrFull) {
					t.Errorf("batch producer %d batch %d: unexpected error %v", b, bi, err)
				}
			}
		}(b)
	}
	wg.Wait()
	close(stop)
	<-consumerDone
	return consumed, acceptedN.Load()
}

// checkPerProducerFIFO audits program order across the concatenated
// streams for single-op producers whose i-th element has ID
// p*perProducer+i+1. Batch-range IDs are skipped (their order through a
// quarantine reroute is intentionally re-sequenced).
func checkPerProducerFIFO(t *testing.T, producers, perProducer int, streams ...[]core.Entry) {
	t.Helper()
	lastIdx := make([]int, producers)
	for i := range lastIdx {
		lastIdx[i] = -1
	}
	for _, stream := range streams {
		for _, ent := range stream {
			if ent.ID >= batchIDBase {
				continue
			}
			p := int(ent.ID-1) / perProducer
			idx := int(ent.ID-1) % perProducer
			if idx <= lastIdx[p] {
				t.Fatalf("producer %d: element %d extracted at or before element %d — FIFO violated", p, idx, lastIdx[p])
			}
			lastIdx[p] = idx
		}
	}
}

// TestSameRankFIFOStorm: eight producers against one concurrent
// consumer, every element at the same rank, so the only thing ordering
// the drain is the global enqueue sequence — drawn before the shard lock
// is taken, so producers can insert out of sequence order. Each
// producer's elements must still come back in its program order. It
// needs no second core: on one, the producers interleave at lock
// boundaries instead.
func TestSameRankFIFOStorm(t *testing.T) {
	const (
		producers   = 8
		perProducer = 2000
	)
	for _, backendName := range backend.ShardNames() {
		t.Run("backend="+backendName, func(t *testing.T) {
			e, err := NewNamed(producers*perProducer, 8, backendName)
			if err != nil {
				t.Fatalf("construct %q engine: %v", backendName, err)
			}
			consumed := make([]core.Entry, 0, producers*perProducer)
			stop := make(chan struct{})
			consumerDone := make(chan struct{})
			go func() {
				defer close(consumerDone)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if ent, ok := e.Dequeue(clock.Always); ok {
						consumed = append(consumed, ent)
					}
				}
			}()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						id := uint32(p*perProducer + i + 1)
						if err := e.Enqueue(core.Entry{ID: id, Rank: 42, SendTime: clock.Always}); err != nil {
							t.Errorf("enqueue %d: %v", id, err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			close(stop)
			<-consumerDone
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-storm invariants: %v", err)
			}
			rest := drainOrder(t, e)
			if got := len(consumed) + len(rest); got != producers*perProducer {
				t.Fatalf("extracted %d elements, want %d", got, producers*perProducer)
			}
			checkPerProducerFIFO(t, producers, perProducer, consumed, rest)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-drain invariants: %v", err)
			}
		})
	}
}

// TestCombiningAPIIsInert: the engine has no rings, so after a storm of
// every operation the rings used to carry, asking for combining changes
// nothing — it still reports disabled and every ring counter reads zero.
func TestCombiningAPIIsInert(t *testing.T) {
	e := New(1<<12, 8)
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

// TestParallelStorm is the fault-free real-parallel storm: exact
// conservation and per-producer FIFO through both the single-op locked
// path and EnqueueBatch's one-lock-per-shard path.
func TestParallelStorm(t *testing.T) {
	requireParallelHost(t)
	for _, backendName := range backend.ShardNames() {
		t.Run(fmt.Sprintf("backend=%s", backendName), func(t *testing.T) {
			total := pStormSingles*pStormPerSingle + pStormBatchers*pStormBatches*pStormBatchLen
			e, err := NewNamed(2*total, 8, backendName)
			if err != nil {
				t.Fatalf("construct %q engine: %v", backendName, err)
			}
			consumed, accepted := parallelStorm(t, e, nil)
			if accepted != int64(total) {
				t.Fatalf("fault-free storm accepted %d of %d", accepted, total)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-storm invariants: %v", err)
			}
			rest := drainOrder(t, e)
			if got := len(consumed) + len(rest); got != total {
				t.Fatalf("extracted %d elements, want %d", got, total)
			}
			// Batch-producer FIFO has batch granularity in the live stream:
			// entries WITHIN one EnqueueBatch call are all in flight
			// simultaneously (no program order among them until the call
			// returns), but batch bi returns before bi+1 begins, so a later
			// batch's element must never precede an earlier batch's. The
			// quiescent drain additionally holds strict intra-batch order
			// (block sequences are stamped in batch position order).
			maxBatch := make(map[int]int, pStormBatchers)
			for _, ent := range consumed {
				if ent.ID < batchIDBase {
					continue
				}
				off := int(ent.ID) - batchIDBase - 1
				b := off / (pStormBatches * pStormBatchLen)
				bi := (off % (pStormBatches * pStormBatchLen)) / pStormBatchLen
				if last, ok := maxBatch[b]; ok && bi < last {
					t.Fatalf("batch producer %d: batch %d element extracted after batch %d — cross-batch FIFO violated", b, bi, last)
				} else if !ok || bi > last {
					maxBatch[b] = bi
				}
			}
			lastIdx := make(map[int]int, pStormBatchers)
			for _, ent := range rest {
				if ent.ID < batchIDBase {
					continue
				}
				off := int(ent.ID) - batchIDBase - 1
				b := off / (pStormBatches * pStormBatchLen)
				idx := off % (pStormBatches * pStormBatchLen)
				if last, ok := lastIdx[b]; ok && idx <= last {
					t.Fatalf("batch producer %d: quiescent drain yielded element %d at or before element %d", b, idx, last)
				}
				lastIdx[b] = idx
			}
			checkPerProducerFIFO(t, pStormSingles, pStormPerSingle, consumed, rest)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-drain invariants: %v", err)
			}
		})
	}
}

// TestParallelStormQuarantine runs the same storm through a
// quarantine/rebuild window: a fault hook panics once on a target shard
// mid-storm, traffic reroutes around it while the healthy shards keep
// serving, and after forced recovery the audit demands exact
// conservation — accepted = consumed + drained + declared losses — plus
// single-op per-producer FIFO (held through the window: a rerouted
// single op keeps its original sequence number).
func TestParallelStormQuarantine(t *testing.T) {
	requireParallelHost(t)
	total := pStormSingles*pStormPerSingle + pStormBatchers*pStormBatches*pStormBatchLen
	e := New(2*total, 8)
	const target = 3
	var armed, fired atomic.Bool
	e.SetFaultHook(func(shard int, op string) {
		if shard == target && armed.Load() && fired.CompareAndSwap(false, true) {
			panic("parallel storm: injected shard fault")
		}
	})
	consumed, accepted := parallelStorm(t, e, func(p, i int) {
		if p == 0 && i == pStormPerSingle/2 {
			armed.Store(true) // open the quarantine window mid-storm
		}
	})
	if !fired.Load() {
		t.Fatal("fault hook never fired: the storm missed the quarantine window")
	}
	armed.Store(false)
	for try := 0; try < 100 && e.Recover() > 0; try++ {
	}
	if down := e.Recover(); down > 0 {
		t.Fatalf("%d shards still down after forced recovery", down)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
	rest := drainOrder(t, e)
	fs := e.FaultStats()
	if fs.Quarantines == 0 {
		t.Fatal("no quarantine recorded despite the fired hook")
	}
	got := int64(len(consumed)) + int64(len(rest)) + int64(fs.LostEntries)
	if got != accepted {
		t.Fatalf("conservation violated: consumed %d + drained %d + lost %d = %d, want accepted %d",
			len(consumed), len(rest), fs.LostEntries, got, accepted)
	}
	// FIFO is audited on the quiescent post-recovery drain only: while
	// the window is open a salvaged element is unavailable, so the live
	// stream can legitimately serve its successor first. Within the
	// quiescent drain, per-producer sequence order is program order
	// (each single op — rerouted or not — completes before its successor
	// draws a sequence number).
	checkPerProducerFIFO(t, pStormSingles, pStormPerSingle, rest)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
}
