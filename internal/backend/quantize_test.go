package backend_test

import (
	"math"
	"testing"

	"pieo/internal/backend"
)

// FuzzRankQuantizer checks the quantization adapter's contract over
// random ranks and bucket widths: the mapping never panics, is monotone
// in rank, collapses only ranks less than one width apart (so any
// dequeue-order inversion a list keyed by bucket introduces is bounded
// by the width), and RankOf returns a floor consistent with Bucket.
func FuzzRankQuantizer(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2), uint64(1))
	f.Add(uint64(1<<20), uint64(1<<20)+37, uint64(256))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64)-1, uint64(3))
	f.Add(uint64(500), uint64(499), uint64(math.MaxUint64))

	f.Fuzz(func(t *testing.T, r1, r2 uint64, width uint64) {
		q := backend.RankQuantizer{Width: width}
		b1, b2 := q.Bucket(r1), q.Bucket(r2)
		if r1 <= r2 && b1 > b2 {
			t.Fatalf("width %d: Bucket not monotone: Bucket(%d)=%d > Bucket(%d)=%d", width, r1, b1, r2, b2)
		}
		if b1 == b2 {
			diff := r1 - r2
			if r2 > r1 {
				diff = r2 - r1
			}
			w := width
			if w == 0 {
				w = 1
			}
			if diff >= w {
				t.Fatalf("width %d: ranks %d and %d share bucket %d but differ by %d", width, r1, r2, b1, diff)
			}
		}
		// The bucket floor must map back into the same bucket and never
		// exceed the rank it quantized.
		if fl := q.RankOf(b1); fl != math.MaxUint64 && (q.Bucket(fl) != b1 || fl > r1) {
			t.Fatalf("width %d: RankOf(%d)=%d inconsistent with rank %d", width, b1, fl, r1)
		}
		// Float mapping agrees with the integer mapping on exactly
		// representable ranks and tolerates non-finite input.
		if r1 < 1<<53 {
			if fb := q.BucketFloat(float64(r1)); fb != b1 {
				t.Fatalf("width %d: BucketFloat(%d)=%d, Bucket=%d", width, r1, fb, b1)
			}
		}
		_ = q.BucketFloat(math.NaN())
		_ = q.BucketFloat(math.Inf(1))
		_ = q.BucketFloat(-1)
	})
}
