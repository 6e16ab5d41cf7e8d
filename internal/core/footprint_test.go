package core

import (
	"math"
	"math/rand"
	"runtime"
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
// A resident is 40 bytes of payload (a 32-byte element plus its 8-byte
// Eligibility-Sublist time) in a row slot of slotBytes = 54 (the two-ended
// window slack doubles the slot number and the time, not the element, and
// the free stack adds a number). The bound per resident is two row slots
// for Invariant 1 (sublists may be half full) plus four 8-byte flow-index
// slots (just after a doubling) — 140 bytes, where the all-elements-twice
// layout needed 200; the per-sublist metadata fits in the slack between
// those worst cases. Storage arrives in steps, so at most two steps'
// worth — the one being filled and, during the doubling phase, as much
// again — is added on top.
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
		bound := int64(r*(2*slotBytes+4*8) + 2*maxStepBytes)
		t.Logf("r=%d: %d bytes live, %.1f B per resident (bound %d), %d of %d sublists bound",
			r, live, float64(live)/float64(r), bound, len(l.sublists), l.NumSublists())
		if live > bound {
			t.Errorf("r=%d residents of capacity %d hold %d bytes live, want <= r x (2 x %d + 32) B + two steps = %d",
				r, n, live, slotBytes, bound)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(l)
	}
}

// BenchmarkGrowthStep makes the amortisation a number: it fills a
// 2^19-capacity list to list_hold's 2^18 residents (fresh ids, the hold
// model's stationary rank distribution) and reports the single most
// expensive enqueue of each kind of growth — a storage step (capped at
// maxStepBytes of sublist stores) and a flow-index doubling (the rehash
// touches every resident, so the last one is the worst step overall) —
// as wall time and bytes bound.
func BenchmarkGrowthStep(b *testing.B) {
	const residents, span = 1 << 18, 1 << 20
	var store, index struct{ ns, bytes float64 }
	steps := 0
	for i := 0; i < b.N; i++ {
		l := New(2 * residents)
		rng := rand.New(rand.NewSource(1))
		for id := 0; id < residents; id++ {
			e := Entry{ID: uint32(id), Rank: uint64(span * (1 - math.Sqrt(1-rng.Float64()))), SendTime: clock.Always}
			bound, slots := len(l.sublists), l.flows.Slots()
			start := time.Now()
			if err := l.Enqueue(e); err != nil {
				b.Fatal(err)
			}
			ns := float64(time.Since(start))
			if n := l.flows.Slots(); n != slots {
				steps++
				if ns > index.ns {
					index.ns, index.bytes = ns, float64(8*n) // a doubling allocates the whole new table
				}
			} else if n := len(l.sublists) - bound; n > 0 {
				steps++
				if ns > store.ns {
					store.ns, store.bytes = ns, float64(n*(l.sublistSize+1)*slotBytes)
				}
			}
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/fill")
	b.ReportMetric(store.ns, "store-step-ns")
	b.ReportMetric(store.bytes, "store-step-B")
	b.ReportMetric(index.ns, "index-step-ns")
	b.ReportMetric(index.bytes, "index-step-B")
}
