package shard_test

import (
	"errors"
	"slices"
	"sync"
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
