package core_test

import (
	"testing"

	"pieo/internal/refmodel/conform"
)

// The list's time index is its own metadata — sorted Eligibility-Sublists,
// smallest_send_time per pointer-array entry, one summary word per 32
// entries — and three queries read it: MinSendTime, NextWakeAfter and the
// "nothing eligible" verdict of every dequeue and peek. The conformance
// programs below drive the list through splits, refills and retires with
// rank uncorrelated with send_time, and after every operation compare
// all three with the reference model (the verdict through conform.Core's
// peeks) at instants below, among and above the resident send_times.

// timeIndexShape spreads finite send_times over 2^11 instants, so query
// instants fall between neighbours as often as on them, with one arrival
// in seventeen never eligible.
func timeIndexShape(capacity int) conform.Shape {
	return conform.Shape{Capacity: capacity, RankBits: 5, TimeBits: 11, NeverOdds: 17}
}

// FuzzCoreTimeIndex runs fuzzer-chosen programs on a list small enough
// (128 entries, sublists of 3, up to 88 pointer-array positions) that a
// short program crosses summary-block boundaries. Open-ended with
// `go test -fuzz=FuzzCoreTimeIndex ./internal/core`; the seed corpus
// runs under plain `go test`.
func FuzzCoreTimeIndex(f *testing.F) {
	sh := timeIndexShape(128)
	// The time-index interpreter's seeds, as the same operation sequences.
	f.Add(sh.Program(1, 0, 5, 0, 206, 0, 63, 1, 0, 7, 0, 0, 1, 24, 15, 1, 164, 0, 0, 1, 0, 2, 8, 0, 255, 255))
	f.Add(sh.Program(1, 0, 3, 0, 0, 0, 0, 1, 0, 3, 8, 0, 0, 0, 15, 255, 255, 0, 63, 1, 0, 0, 3, 132, 0, 49, 95, 1, 0, 0))
	f.Add(sh.Program(1, 0, 9, 1, 252, 0, 7, 1, 0, 8, 2, 96, 0, 14, 1, 0, 7, 2, 196, 0, 21, 79, 0, 1, 0, 2, 0, 0, 2, 48, 63, 2, 118, 0, 0, 4, 1, 234, 95, 1, 1, 164, 31, 0, 0, 1, 94))
	// A sweep: single arrivals past 32 active sublists and nine tenths
	// full, then dequeues, evictions and band-span ranged dequeues at
	// instants climbing through the send_times.
	var sweep []byte
	for k := 0; k < 120; k++ {
		sweep = append(sweep, 1, 0, byte(k*7), byte(k>>5), byte(k*13+2), 0, byte(k*3))
	}
	for k := 0; k < 100; k++ {
		sweep = append(sweep, 0x0f, byte(k>>4), byte(k*5), 0x5f, 1, 0x2f, byte(k>>3), 253, byte(k), 7, 0, byte(k*11))
	}
	f.Add(sh.Program(sweep...))
	conform.Fuzz(f, coreAt(3))
}

// TestTimeIndexDifferential is the seeded counterpart: random programs
// long enough to fill and drain a list with ~200 sublists (seven summary
// blocks) several times over, so block skipping, cross-block
// pointer-array shifts and straddling sublists all occur with the list
// both nearly empty and nearly full.
func TestTimeIndexDifferential(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		conform.Run(t, coreAt(3), timeIndexShape(320).Seeded(seed, 24000))
	}
}
