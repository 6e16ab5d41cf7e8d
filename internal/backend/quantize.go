package backend

import "math"

// RankQuantizer maps ranks onto bucket indices: the quantization a
// bucketed list makes (Eiffel's FFS queues, arXiv 1810.03060). Width is
// the bucket width W: ranks r1, r2 land in the same bucket iff
// ⌊r1/W⌋ == ⌊r2/W⌋, so any two elements a list keyed by bucket may
// reorder differ by less than W in rank. W == 1 (and W == 0, which
// normalizes to 1) is the identity — one rank per bucket, no precision
// lost. The qdev experiment feeds a core list Bucket(rank) at several
// widths to measure the trade (PAPERS.md: "Everything Matters in
// Programmable Packet Scheduling" studies exactly this trade).
type RankQuantizer struct {
	Width uint64
}

// width normalizes the zero value to the identity quantizer.
func (q RankQuantizer) width() uint64 {
	if q.Width == 0 {
		return 1
	}
	return q.Width
}

// Bucket maps an integer rank to its bucket index: ⌊rank/W⌋. The mapping
// is monotone (r1 <= r2 ⇒ Bucket(r1) <= Bucket(r2)), total over uint64,
// and never panics.
func (q RankQuantizer) Bucket(rank uint64) uint64 {
	return rank / q.width()
}

// BucketFloat maps a non-integer rank (WF²Q+ virtual finish times and
// the like are naturally fractional) to a bucket index: ⌊r/W⌋ clamped
// onto the representable range. NaN and negative ranks clamp to bucket
// 0, +Inf and overflowing ranks to the maximum bucket; the mapping is
// monotone over the extended real order and never panics.
func (q RankQuantizer) BucketFloat(r float64) uint64 {
	if math.IsNaN(r) || r <= 0 {
		return 0
	}
	b := math.Floor(r / float64(q.width()))
	// 1<<64 - 1 is not exactly representable; everything at or above
	// 2^64 clamps to the top bucket.
	if b >= float64(1<<63)*2 {
		return math.MaxUint64
	}
	return uint64(b)
}

// RankOf maps a bucket index back to the smallest rank in the bucket —
// the lower bound a bucketed list can report for a bucket's residents.
// Saturates instead of wrapping on overflow.
func (q RankQuantizer) RankOf(bucket uint64) uint64 {
	w := q.width()
	if bucket > math.MaxUint64/w {
		return math.MaxUint64
	}
	return bucket * w
}
