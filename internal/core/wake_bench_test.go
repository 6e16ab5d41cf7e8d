package core_test

import (
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
)

var wakeSink clock.Time

// BenchmarkNextWakeAfter prices the next-release query at 2^18 resident
// (capacity 2^19, sublists of 725, 512 of them active: 16 summary words)
// in the four regimes that set its cost, best to worst for a walk over
// the pointer array:
//
//   - drained: rank = send_time and everything due has been dequeued —
//     the Carousel loop's state at every wake query. Every summary word
//     is in the future; no sublist is touched.
//   - front1pct: rank = send_time, the earliest 1 % due but not yet
//     dequeued. The due sublists are wholly in the past, one straddles.
//   - straddle: rank independent of send_time, now at the median — every
//     sublist straddles now and is binary-searched, the worst case.
//   - widespan: as straddle, with send_times spread over 2^40 ticks
//     instead of 2^24 — nothing to a sorted array, far outside a
//     2^16-slot × 1024-tick timing wheel's window.
//
// The CHANGES.md entry "one time index in `core.List`, not two" records
// the numbers beside the per-element timing wheel this walk replaced.
func BenchmarkNextWakeAfter(b *testing.B) {
	const resident = 1 << 18
	for _, c := range []struct {
		name       string
		span       int64 // send_times uniform in [1, span]
		correlated bool  // rank = send_time
		dueShare   int64 // now = span/dueShare
		drain      bool  // dequeue everything due before measuring
	}{
		{"drained", 1 << 24, true, 100, true},
		{"front1pct", 1 << 24, true, 100, false},
		{"straddle", 1 << 24, false, 2, false},
		{"widespan", 1 << 40, false, 2, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			l := core.New(2 * resident)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < resident; i++ {
				t := clock.Time(1 + rng.Int63n(c.span))
				rank := uint64(t)
				if !c.correlated {
					rank = uint64(rng.Int63n(c.span))
				}
				if err := l.Enqueue(core.Entry{ID: uint32(i), Rank: rank, SendTime: t}); err != nil {
					b.Fatal(err)
				}
			}
			now := clock.Time(c.span / c.dueShare)
			if c.drain {
				for {
					if _, ok := l.Dequeue(now); !ok {
						break
					}
				}
			}
			if wake := l.NextWakeAfter(now); wake <= now || wake == clock.Never {
				b.Fatalf("NextWakeAfter(%v) = %v with %d resident", now, wake, l.Len())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wakeSink = l.NextWakeAfter(now)
			}
		})
	}
}
