package core_test

import (
	"fmt"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel"
	"pieo/internal/refmodel/conform"
)

// The ranged select skips sublists by their resident-ID bounds, and how
// much that skips depends entirely on how an element's rank relates to
// its ID — so the ranged operations are checked against the reference
// under each conform layout: IDs correlated with rank (one band's
// residents contiguous in rank order, the logical-PIEO layout the bounds
// are built for), anti-correlated, and unrelated. Sublists of 6 spread
// the 256 IDs over some 40+ sublists, so every band straddles several
// and every scan has bounds to consult; band gutting leaves them
// stale-wide over what remains.

// The banded tests hold 256 entries in rlBands bands of rlBandWidth IDs,
// each band's ranks in its own 2^16 region, over 8 instants.
const (
	rlBands     = 8
	rlBandWidth = 32
	rlIDs       = rlBands * rlBandWidth
)

func rangedShape(ly conform.Layout) conform.Shape {
	return conform.Shape{Capacity: rlIDs, RankBits: 16, TimeBits: 3, Layout: ly}
}

// TestRangedDifferentialLayouts runs seeded conformance programs —
// inserts, point removals, gutted bands, and ranged selects over band
// runs and arbitrary ranges, each preceded by PeekRange and a
// below-limit select (see conform.Core) — under the three ID↔rank layouts.
func TestRangedDifferentialLayouts(t *testing.T) {
	for _, ly := range []conform.Layout{conform.Banded, conform.Anti, conform.Random} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", ly, seed), func(t *testing.T) {
				conform.Run(t, coreAt(6), rangedShape(ly).Seeded(seed, 24000))
			})
		}
	}
}

// bandedPair is a list of sublists of 6 and the reference, both holding
// every ID of the banded layout at rank band<<16|id, always eligible.
func bandedPair(t *testing.T) (*core.List, *refmodel.List) {
	impl, ref := core.NewWithSublistSize(rlIDs, 6), refmodel.New(rlIDs)
	for id := uint32(0); id < rlIDs; id++ {
		e := core.Entry{ID: id, Rank: uint64(id/rlBandWidth)<<16 | uint64(id), SendTime: clock.Always}
		if err := impl.Enqueue(e); err != nil || ref.Enqueue(e) != nil {
			t.Fatalf("Enqueue(%v): %v", e, err)
		}
	}
	if err := impl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return impl, ref
}

// sameRange runs DequeueRange on both and fails on a divergence.
func sameRange(t *testing.T, impl *core.List, ref *refmodel.List, lo, hi uint32) {
	t.Helper()
	got, gok := impl.DequeueRange(0, lo, hi)
	want, wok := ref.DequeueRange(0, lo, hi)
	if gok != wok || got != want {
		t.Fatalf("DequeueRange(0, %d, %d) = %v,%v, ref %v,%v", lo, hi, got, gok, want, wok)
	}
}

// TestRangedSelectReadsOnlyItsBand pins what the bounds buy in the layout
// they are built for: with every band's residents contiguous in rank
// order, a ranged dequeue on the LAST band reads the sublists that band
// shares with its neighbour at most — not, as before the bounds, every
// time-eligible sublist ahead of it.
func TestRangedSelectReadsOnlyItsBand(t *testing.T) {
	impl, ref := bandedPair(t)
	const lo, hi = (rlBands - 1) * rlBandWidth, rlIDs - 1
	before := impl.Stats()
	sameRange(t, impl, ref, lo, hi)
	after := impl.Stats()
	// One read for the hit, at most one for a boundary sublist whose
	// in-range residents all rank after the neighbour's, one for a refill.
	if reads := after.SublistReads - before.SublistReads; reads > 3 {
		t.Fatalf("ranged dequeue on the last of %d bands read %d sublists", rlBands, reads)
	}
	if cycles := after.Cycles - before.Cycles; cycles > 5 {
		t.Fatalf("ranged dequeue on the last of %d bands took %d cycles", rlBands, cycles)
	}
}

// TestRangedMissTightensStaleBounds: removals never narrow the bounds, so
// after the last band is gutted by point dequeues the sublist it shared
// with its neighbour still claims its IDs, and the next ranged select
// reads that sublist in vain — once. That scan recomputes the bounds
// exactly, and the same select again reads nothing. A peek in between
// must not tighten: it writes nothing.
func TestRangedMissTightensStaleBounds(t *testing.T) {
	impl, ref := bandedPair(t)
	const lo, hi = (rlBands - 1) * rlBandWidth, rlIDs - 1
	for id := uint32(lo); id <= hi; id++ {
		got, gok := impl.DequeueFlow(id)
		if want, wok := ref.DequeueFlow(id); gok != wok || got != want {
			t.Fatalf("DequeueFlow(%d) = %v,%v, ref %v,%v", id, got, gok, want, wok)
		}
	}
	if err := impl.CheckInvariants(); err != nil || impl.Len() != ref.Len() {
		t.Fatalf("Len %d, ref %d: %v", impl.Len(), ref.Len(), err)
	}

	reads := func(op func()) uint64 {
		before := impl.Stats().SublistReads
		op()
		return impl.Stats().SublistReads - before
	}
	before := impl.Stats()
	if e, ok := impl.PeekRange(0, lo, hi); ok || impl.Stats() != before {
		t.Fatalf("PeekRange over the gutted band = %v,%v, stats %+v -> %+v", e, ok, before, impl.Stats())
	}
	first := reads(func() { sameRange(t, impl, ref, lo, hi) })
	if first == 0 {
		t.Fatal("no sublist kept stale bounds over the gutted band; the test lost its premise")
	}
	if err := impl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if again := reads(func() { sameRange(t, impl, ref, lo, hi) }); again != 0 {
		t.Fatalf("second ranged miss read %d sublists, want 0 (the first read %d and should have tightened them)", again, first)
	}
}

// FuzzRangedLayouts runs fuzzer-chosen conformance programs on the
// 256-entry list of sublists of 6; the header's layout byte picks the
// ID↔rank relation. The seed corpus holds one removal-heavy program per
// layout: half-fill the first bands, gut two of them, then ranged
// selects over one to three bands.
func FuzzRangedLayouts(f *testing.F) {
	for _, ly := range []conform.Layout{conform.Banded, conform.Anti, conform.Random} {
		var ops []byte
		for id := byte(0); id < 72; id += 2 {
			ops = append(ops, 1, 0, id, 0, id*7, 0, id%8, 0, 0)
		}
		ops = append(ops, 0x7f, 1, 0, 8, 0, 0, 0x7f, 0, 0, 2, 0, 0)
		for band := byte(0); band < 3; band++ {
			ops = append(ops, 0x2f, 0, 7, band, 1, 0, 0, 0x3f, 0, 7, 1, band*32, 16, 0, 0)
		}
		f.Add(rangedShape(ly).Program(ops...))
	}
	// A regression input of the ranged interpreter, as the same
	// operation sequence.
	f.Add(rangedShape(conform.Random).Program(1, 0, 1, 2, 1, 0, 3, 0, 0, 1, 0, 200, 4, 200, 0, 5, 0, 0, 47, 0, 3, 0, 7, 0, 0, 31, 0, 6, 0, 0, 31, 0, 0, 0, 0))
	conform.Fuzz(f, coreAt(6))
}
