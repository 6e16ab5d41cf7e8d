package shard_test

import (
	"math/rand"
	"runtime"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/shard"
)

// TestEngineFootprintIndependentOfShardCount: every shard is bounded by
// the full shared capacity, but a bound is not an allocation — the same
// 4 096 residents must cost about the same heap whether the 2^19-capacity
// engine splits them over 1, 8 or 64 shards. What is left to differ is
// per-shard fixed cost (one partly filled sublist and one growth step
// per shard), hence a stated factor of 4 and a ceiling of
// 4 MB — 88.6 / 94.3 / 211.8 MB when each shard allocated for its bound.
func TestEngineFootprintIndependentOfShardCount(t *testing.T) {
	const (
		n         = 1 << 19
		residents = 4096
		factor    = 4
		ceiling   = 4 << 20
	)
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	lo, hi := int64(1<<62), int64(0)
	for _, k := range []int{1, 8, 64} {
		base := liveHeap()
		e := shard.New(n, k)
		rng := rand.New(rand.NewSource(int64(k)))
		for id := uint32(0); id < residents; id++ {
			if err := e.Enqueue(core.Entry{ID: id, Rank: uint64(rng.Intn(1 << 30)), SendTime: clock.Always}); err != nil {
				t.Fatal(err)
			}
		}
		live := liveHeap() - base
		t.Logf("K=%d: %d bytes live for %d residents of capacity %d", k, live, residents, n)
		if live > ceiling {
			t.Errorf("K=%d: %d bytes live, want <= %d", k, live, ceiling)
		}
		lo, hi = min(lo, live), max(hi, live)
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(e)
	}
	if hi > factor*lo {
		t.Errorf("footprint varies %d..%d bytes across K = 1, 8, 64: more than %dx", lo, hi, factor)
	}
}
