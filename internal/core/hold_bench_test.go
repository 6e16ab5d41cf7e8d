package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pieo/internal/clock"
)

// BenchmarkHoldResident is the classic hold model on the raw list —
// dequeue the smallest, enqueue a never-reused ID at the dequeued rank
// plus a random increment, everything eligible — at three resident
// sizes, with capacity twice the resident count as in the bench suite's
// list_hold workload (which is the 256k row). ns/op is one
// dequeue+enqueue pair; the rows show how the per-pair cost grows as the
// flow index and the sublist stores outgrow the caches. B/resident is
// the list's footprint beside it: the live heap after a collection,
// taken once after the warm-up and net of the heap before the list was
// built, divided by the resident count. worst-pair-ns is the slowest
// single pair of the warm-up, whose pairs are timed one by one; the
// measured loop reads no clock, so ns/op carries none of that cost.
func BenchmarkHoldResident(b *testing.B) {
	for _, c := range []struct {
		name     string
		resident int
	}{{"4k", 1 << 12}, {"32k", 1 << 15}, {"256k", 1 << 18}} {
		b.Run(c.name, func(b *testing.B) {
			const span = 1 << 20
			base := liveHeap()
			l := New(2 * c.resident)
			rng := rand.New(rand.NewSource(1))
			id := uint32(0)
			// Prefill from the model's stationary distribution (density
			// falling linearly to zero at span) so cost does not drift
			// while the list settles.
			for i := 0; i < c.resident; i++ {
				rank := uint64(span * (1 - math.Sqrt(1-rng.Float64())))
				if err := l.Enqueue(Entry{ID: id, Rank: rank, SendTime: clock.Always}); err != nil {
					b.Fatal(err)
				}
				id++
			}
			pair := func() {
				e, ok := l.Dequeue(0)
				if !ok {
					b.Fatal("hold model ran dry")
				}
				if err := l.Enqueue(Entry{ID: id, Rank: e.Rank + uint64(rng.Intn(span)), SendTime: clock.Always}); err != nil {
					b.Fatal(err)
				}
				id++
			}
			// Warm past the fill transient: long enough for every
			// sublist window to have drifted from where the prefill
			// left it.
			worst := time.Duration(0)
			for i := 0; i < 4*c.resident; i++ {
				start := time.Now()
				pair()
				worst = max(worst, time.Since(start))
			}
			footprint := float64(int64(liveHeap())-int64(base)) / float64(c.resident)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair()
			}
			b.ReportMetric(footprint, "B/resident") // after ResetTimer, which drops reported metrics
			b.ReportMetric(float64(worst), "worst-pair-ns")
		})
	}
}
