package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pieo/internal/clock"
)

// liveHeap returns the bytes the heap holds after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFootprintFollowsResidents pins "capacity is a bound, not an
// allocation": constructing a 2^19-capacity list costs one sublist, and
// the live heap at r residents is proportional to r, not to the capacity.
//
// A resident is a 24-byte element in the arena, plus a handle and a
// send_time in a sublist place of slotBytes = 24 (the two-ended window
// slack doubles both). The bound per resident is two sublist places for
// Invariant 1 (sublists may be half full), its element, and four 8-byte
// flow-index slots (just after a doubling) — 104 bytes; the per-sublist
// metadata fits in the slack between those worst cases.
// Sublist storage arrives in steps, so at most two steps' worth — the one
// being filled and, during the doubling phase, as much again — is added
// on top, and the arena's one chunk that is not yet full.
func TestFootprintFollowsResidents(t *testing.T) {
	const n = 1 << 19

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := New(n)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("New(%d) allocated %d bytes, want < 64 KiB (one sublist of %d)", n, got, l.SublistSize())
	}
	if want := 2*((n+l.SublistSize()-1)/l.SublistSize()) + 2; l.NumSublists() != want {
		t.Errorf("NumSublists() = %d, want %d: the geometry must not follow the storage", l.NumSublists(), want)
	}

	for _, r := range []int{1 << 10, 1 << 14, 1 << 18} {
		l = nil // the previous list is not part of the baseline
		base := liveHeap()
		l = New(n)
		rng := rand.New(rand.NewSource(int64(r)))
		for id := 0; id < r; id++ {
			e := Entry{ID: uint32(id), Rank: uint64(rng.Intn(1 << 30)), SendTime: clock.Time(rng.Intn(1 << 20))}
			if err := l.Enqueue(e); err != nil {
				t.Fatal(err)
			}
		}
		live := int64(liveHeap()) - int64(base)
		bound := int64(r*(2*slotBytes+elemBytes+4*8) + 2*maxStepBytes + chunkLen*elemBytes)
		t.Logf("r=%d: %d bytes live, %.1f B per resident (bound %d), %d of %d sublists bound",
			r, live, float64(live)/float64(r), bound, len(l.sublists), l.NumSublists())
		if live > bound {
			t.Errorf("r=%d residents of capacity %d hold %d bytes live, want <= r x (2 x %d + %d + 32) B + two steps + a chunk = %d",
				r, n, live, slotBytes, elemBytes, bound)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(l)
	}
}

// BenchmarkGrowthStep makes the amortisation a number: it fills a
// 2^19-capacity list to list_hold's 2^18 residents (fresh ids, the hold
// model's stationary rank distribution), timing every enqueue. It
// reports the single most expensive enqueue of each kind of growth — a
// storage step (capped at maxStepBytes of sublist stores), a chunk step
// (the arena appends a chunk of chunkLen elements and copies none, or
// its first chunk doubles) and a flow-index doubling (the rehash touches
// every resident) — as wall time and bytes allocated; an enqueue that
// grows two kinds at once counts as the first. Over every enqueue of
// every fill it reports the worst single one, whatever its kind, which
// the log names, and the worst fill's p99.99.
func BenchmarkGrowthStep(b *testing.B) {
	const residents, span = 1 << 18, 1 << 20
	var store, chunk, index struct{ ns, bytes float64 }
	var worst, p9999 float64
	worstKind := "no growth"
	steps := 0
	ns := make([]float64, residents)
	for i := 0; i < b.N; i++ {
		l := New(2 * residents)
		rng := rand.New(rand.NewSource(1))
		for id := 0; id < residents; id++ {
			e := Entry{ID: uint32(id), Rank: uint64(span * (1 - math.Sqrt(1-rng.Float64()))), SendTime: clock.Always}
			bound, slots, grows := len(l.sublists), l.flows.Slots(), l.free == noHandle
			start := time.Now()
			if err := l.Enqueue(e); err != nil {
				b.Fatal(err)
			}
			ns[id] = float64(time.Since(start))
			kind := "no growth"
			if n := l.flows.Slots(); n != slots {
				steps++
				kind = "flow-index doubling"
				if ns[id] > index.ns {
					index.ns, index.bytes = ns[id], float64(8*n) // a doubling allocates the whole new table
				}
			} else if n := len(l.sublists) - bound; n > 0 {
				steps++
				kind = "storage step"
				if ns[id] > store.ns {
					store.ns, store.bytes = ns[id], float64(n*(l.sublistSize+1)*slotBytes)
				}
			} else if grows {
				steps++
				kind = "chunk step"
				if ns[id] > chunk.ns {
					chunk.ns, chunk.bytes = ns[id], float64(len(l.arena[len(l.arena)-1])*elemBytes)
				}
			}
			if ns[id] > worst {
				worst, worstKind = ns[id], kind
			}
		}
		slices.Sort(ns)
		p9999 = max(p9999, ns[residents-1-residents/10000]) // nearest rank
	}
	b.Logf("the worst enqueue (%.0f ns) was a %s", worst, worstKind)
	b.ReportMetric(float64(steps)/float64(b.N), "steps/fill")
	b.ReportMetric(store.ns, "store-step-ns")
	b.ReportMetric(store.bytes, "store-step-B")
	b.ReportMetric(chunk.ns, "chunk-step-ns")
	b.ReportMetric(chunk.bytes, "chunk-step-B")
	b.ReportMetric(index.ns, "index-step-ns")
	b.ReportMetric(index.bytes, "index-step-B")
	b.ReportMetric(worst, "worst-enqueue-ns")
	b.ReportMetric(p9999, "p99.99-enqueue-ns")
}
