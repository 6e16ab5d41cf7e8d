package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// The producer storms. Producers insert while one consumer extracts, on
// as many cores as the host has; on one core they interleave at lock
// boundaries instead. Every element is always eligible and at one rank,
// so the only thing ordering the drain is the list's FIFO tie-break: one
// lock makes every operation atomic, so each producer's elements —
// single Enqueue calls and whole EnqueueBatch calls alike — must come
// back in its program order, across the live stream and the quiescent
// drain together.
//
// ID encoding: single-op producer p's i-th element is p*perProducer+i+1;
// batch producer b's elements start at batchIDBase.

const (
	pStormSingles   = 4    // single-op producers
	pStormPerSingle = 2500 // elements per single-op producer
	pStormBatchers  = 2    // EnqueueBatch producers
	pStormBatches   = 40   // batches per batch producer
	pStormBatchLen  = 60   // elements per batch
	batchIDBase     = 1 << 20
)

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

// consume runs one consumer against e until stop closes and returns its
// in-order stream on done.
func consume(e *Engine, stop <-chan struct{}) <-chan []core.Entry {
	done := make(chan []core.Entry, 1)
	go func() {
		var consumed []core.Entry
		for {
			select {
			case <-stop:
				done <- consumed
				return
			default:
			}
			if ent, ok := e.Dequeue(clock.Always); ok {
				consumed = append(consumed, ent)
			}
		}
	}()
	return done
}

// checkProducerFIFO audits program order across the concatenated
// streams: element idx of producer p is stored in ID base+p*per+idx+1,
// and IDs outside [base, base+producers*per] belong to other producers.
func checkProducerFIFO(t *testing.T, base uint32, producers, per int, streams ...[]core.Entry) {
	t.Helper()
	lastIdx := make([]int, producers)
	for i := range lastIdx {
		lastIdx[i] = -1
	}
	for _, stream := range streams {
		for _, ent := range stream {
			if ent.ID <= base || ent.ID > base+uint32(producers*per) {
				continue
			}
			p := int(ent.ID-base-1) / per
			idx := int(ent.ID-base-1) % per
			if idx <= lastIdx[p] {
				t.Fatalf("producer %d (IDs from %d): element %d extracted at or before element %d — FIFO violated", p, base, idx, lastIdx[p])
			}
			lastIdx[p] = idx
		}
	}
}

// TestSameRankFIFOStorm: eight producers against one concurrent
// consumer, every element at the same rank, so the drain is ordered by
// enqueue order alone. Each producer's elements must come back in its
// program order, and every element exactly once.
func TestSameRankFIFOStorm(t *testing.T) {
	const (
		producers   = 8
		perProducer = 2000
	)
	t.Run("backend=core", func(t *testing.T) {
		e := New(producers*perProducer, 8)
		stop := make(chan struct{})
		done := consume(e, stop)
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
		consumed := <-done
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("post-storm invariants: %v", err)
		}
		rest := drainOrder(t, e)
		if got := len(consumed) + len(rest); got != producers*perProducer {
			t.Fatalf("extracted %d elements, want %d", got, producers*perProducer)
		}
		checkProducerFIFO(t, 0, producers, perProducer, consumed, rest)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("post-drain invariants: %v", err)
		}
	})
}

// TestParallelStorm is the mixed storm: single-op producers and
// EnqueueBatch producers against one consumer, with exact conservation
// and per-producer FIFO for both kinds. A batch is inserted in order
// under one lock hold, so a batch producer's elements keep program order
// element by element, not just batch by batch.
func TestParallelStorm(t *testing.T) {
	t.Run("backend=core", func(t *testing.T) {
		total := pStormSingles*pStormPerSingle + pStormBatchers*pStormBatches*pStormBatchLen
		e := New(2*total, 8)
		var accepted atomic.Int64
		stop := make(chan struct{})
		done := consume(e, stop)
		var wg sync.WaitGroup
		for p := 0; p < pStormSingles; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < pStormPerSingle; i++ {
					id := uint32(p*pStormPerSingle + i + 1)
					if err := e.Enqueue(core.Entry{ID: id, Rank: 42, SendTime: clock.Always}); err != nil {
						t.Errorf("producer %d: enqueue %d: %v", p, id, err)
						return
					}
					accepted.Add(1)
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
			t.Fatalf("fault-free storm accepted %d of %d", got, total)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("post-storm invariants: %v", err)
		}
		rest := drainOrder(t, e)
		if got := len(consumed) + len(rest); got != total {
			t.Fatalf("extracted %d elements, want %d", got, total)
		}
		checkProducerFIFO(t, 0, pStormSingles, pStormPerSingle, consumed, rest)
		checkProducerFIFO(t, batchIDBase, pStormBatchers, pStormBatches*pStormBatchLen, consumed, rest)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("post-drain invariants: %v", err)
		}
	})
}
