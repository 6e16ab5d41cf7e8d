package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/core"
)

// TestBatchQuiescentDrain: on a quiescent engine, DequeueUpTo must
// return the exact global (rank, FIFO) order, including cross-shard
// equal-rank ties, and leave the engine coherent. (The differential
// tests in internal/core additionally hold the batch paths bit-for-bit
// against the flat reference model at K=1 and K=8.)
func TestBatchQuiescentDrain(t *testing.T) {
	e := New(512, 8)
	var es []core.Entry
	for i := 0; i < 300; i++ {
		// Few distinct ranks: most dequeues are cross-shard FIFO
		// tie-breaks, which only the stamped sequence can order.
		es = append(es, core.Entry{ID: uint32(i), Rank: uint64(i % 3), SendTime: 0})
	}
	if n, err := e.EnqueueBatch(es); n != len(es) || err != nil {
		t.Fatalf("EnqueueBatch = %d,%v, want %d,nil", n, err, len(es))
	}
	got := e.DequeueUpTo(0, len(es)+10, nil)
	if len(got) != len(es) {
		t.Fatalf("drained %d entries, want %d", len(got), len(es))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Rank < got[i-1].Rank {
			t.Fatalf("rank order violated at %d: %v after %v", i, got[i], got[i-1])
		}
		if got[i].Rank == got[i-1].Rank && got[i].ID < got[i-1].ID {
			t.Fatalf("FIFO tie-break violated at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchCapacityEdge: a batch that overshoots capacity keeps
// per-entry semantics — partial acceptance up to capacity, first error
// ErrFull, every entry attempted.
func TestBatchCapacityEdge(t *testing.T) {
	e := New(10, 4)
	var es []core.Entry
	for i := 0; i < 16; i++ {
		es = append(es, core.Entry{ID: uint32(i), Rank: uint64(i), SendTime: 0})
	}
	n, err := e.EnqueueBatch(es)
	if n != 10 || err != core.ErrFull {
		t.Fatalf("EnqueueBatch over capacity = %d,%v, want 10,ErrFull", n, err)
	}
	if e.Len() != 10 {
		t.Fatalf("Len = %d, want 10", e.Len())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConcurrent hammers the batch paths from concurrent producers
// and consumers (run under -race) and checks conservation: every element
// batch-enqueued is either batch-dequeued exactly once or still resident
// at the end.
func TestBatchConcurrent(t *testing.T) {
	const (
		producers = 4
		consumers = 2
		perProd   = 2000
		batchSize = 32
	)
	e := New(producers*perProd, 8)
	var dequeued atomic.Int64
	var seen sync.Map

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]core.Entry, 0, batchSize)
			for i := 0; i < perProd; i++ {
				id := uint32(p*perProd + i)
				batch = append(batch, core.Entry{ID: id, Rank: uint64(id % 97), SendTime: 0})
				if len(batch) == batchSize || i == perProd-1 {
					if n, err := e.EnqueueBatch(batch); n != len(batch) || err != nil {
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
			out := make([]core.Entry, 0, batchSize)
			for {
				out = e.DequeueUpTo(0, batchSize, out[:0])
				for _, ent := range out {
					if _, dup := seen.LoadOrStore(ent.ID, true); dup {
						t.Errorf("id %d dequeued twice", ent.ID)
						return
					}
					dequeued.Add(1)
				}
				if len(out) == 0 {
					select {
					case <-done:
						if e.Len() == 0 {
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
	if e.Len() != 0 {
		t.Fatalf("Len = %d after full drain, want 0", e.Len())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
