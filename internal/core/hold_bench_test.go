package core_test

import (
	"math"
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// BenchmarkHoldResident is the classic hold model on the raw list —
// dequeue the smallest, enqueue a never-reused ID at the dequeued rank
// plus a random increment, everything eligible — at three resident
// sizes, with capacity twice the resident count as in the bench suite's
// list_hold workload (which is the 256k row). ns/op is one
// dequeue+enqueue pair; the rows show how the per-pair cost grows as the
// flow index and the sublist stores outgrow the caches.
func BenchmarkHoldResident(b *testing.B) {
	for _, c := range []struct {
		name     string
		resident int
	}{{"4k", 1 << 12}, {"32k", 1 << 15}, {"256k", 1 << 18}} {
		b.Run(c.name, func(b *testing.B) {
			const span = 1 << 20
			l := core.New(2 * c.resident)
			rng := rand.New(rand.NewSource(1))
			id := uint32(0)
			// Prefill from the model's stationary distribution (density
			// falling linearly to zero at span) so cost does not drift
			// while the list settles.
			for i := 0; i < c.resident; i++ {
				rank := uint64(span * (1 - math.Sqrt(1-rng.Float64())))
				if err := l.Enqueue(core.Entry{ID: id, Rank: rank, SendTime: clock.Always}); err != nil {
					b.Fatal(err)
				}
				id++
			}
			pair := func() {
				e, ok := l.Dequeue(0)
				if !ok {
					b.Fatal("hold model ran dry")
				}
				if err := l.Enqueue(core.Entry{ID: id, Rank: e.Rank + uint64(rng.Intn(span)), SendTime: clock.Always}); err != nil {
					b.Fatal(err)
				}
				id++
			}
			// Warm past the fill transient: long enough for every
			// sublist window to have drifted from where the prefill
			// left it.
			for i := 0; i < 4*c.resident; i++ {
				pair()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair()
			}
		})
	}
}
