package core_test

import (
	"testing"

	"pieo/internal/refmodel/conform"
)

// FuzzListOps runs fuzzer-chosen conformance programs on a 24-entry list
// with 16 ranks and 8 instants, once on the paper's geometry and once on
// sublists of 2, where nearly every step spills or refills (in both
// directions) and reuses a freed slot; through conform.Core every other
// flow dequeue also checks the rank-range queries and may extract by
// DequeueRankRange, so those meet the same churn. Run with
// `go test -fuzz=FuzzListOps ./internal/core` for open-ended fuzzing;
// under plain `go test` the seed corpus below runs as a regression test.
func FuzzListOps(f *testing.F) {
	sh := conform.Shape{Capacity: 24, RankBits: 4, TimeBits: 3}
	// The list-op interpreter's seeds, as the same operation sequences.
	f.Add(sh.Program(1, 0, 1, 0, 2, 0, 0, 63, 0, 4, 0, 1, 8, 0, 0, 111, 0, 7, 3, 0, 0, 31, 0, 0, 0, 0))
	f.Add(sh.Program(1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0))
	f.Add(sh.Program(15, 0, 1, 0, 0, 15, 0, 1, 0, 0))
	f.Add(sh.Program(1, 0, 10, 0, 1, 0, 0, 1, 0, 0, 0, 4, 0, 0, 15, 0, 0, 0, 0, 31, 0, 0, 0, 0, 63, 0, 5, 0, 0, 8, 0, 0))
	f.Add(sh.Program(63, 0, 6, 0, 0, 8, 0, 0, 1, 0, 11, 0, 2, 0, 0, 1, 0, 1, 0, 2, 0, 0, 63, 0, 0, 0, 0, 8, 0, 0))
	f.Add(sh.Program(0, 3, 1, 0, 10, 0, 2, 1, 0, 3, 0, 3, 0, 0, 0, 0, 1, 0, 6, 0, 0, 0, 0, 2, 0, 0, 0, 0))
	f.Add(sh.Program(0, 4, 1, 0, 5, 0, 0, 0, 0, 0, 0, 6, 0, 4, 1, 0, 4, 0, 6, 0, 0, 0, 0, 4, 0, 5, 1, 0, 0, 0, 0, 0, 0))

	conform.Fuzz(f, coreAt(0), coreAt(2))
}
