package pieo

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/refmodel/conform"
)

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

// TestSyncListConcurrent hammers the list from many goroutines; run
// under -race this validates the locking discipline, and the totals
// validate element conservation.
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

func TestSyncListConcurrentRangeAndSnapshot(t *testing.T) {
	l := NewSyncList(1024)
	for i := uint32(0); i < 1024; i++ {
		l.Enqueue(Entry{ID: i, Rank: uint64(i), SendTime: Always})
	}
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
				}
				l.Snapshot()
				l.MinSendTime()
			}
		}()
	}
	wg.Wait()
	if l.Len() != 1024 {
		t.Fatalf("Len = %d, want 1024 (conservation under churn)", l.Len())
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

// TestSyncListConcurrentConformance runs two conformance programs on one
// SyncList at once, each confined to its own ID range and checked
// against its own spec. Operations on disjoint ranges commute and each
// range's FIFO order is its program's, so every answer must equal the
// spec's whatever the interleaving, and afterwards each range of the
// snapshot must equal its spec's contents. Under -race this checks the
// lock discipline against an exact oracle, not only conservation.
func TestSyncListConcurrentConformance(t *testing.T) {
	programs := []struct {
		base    uint32
		program []byte
	}{
		{0, conform.Shape{Capacity: 96, RankBits: 3, TimeBits: 3, NeverOdds: 16}.Seeded(1, 20000)},
		{1 << 24, conform.Shape{Capacity: 96, RankBits: 8, TimeBits: 3, Layout: conform.Banded}.Seeded(2, 20000)},
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
			t.Fatalf("program at %d: %v", p.base, errs[i])
		}
		var got []Entry
		for _, e := range l.Snapshot() {
			if e.ID >= p.base && e.ID-p.base < 1<<24 {
				got = append(got, e)
			}
		}
		if !slices.Equal(got, specs[i]) {
			t.Fatalf("range at %d holds %v, spec %v", p.base, got, specs[i])
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
