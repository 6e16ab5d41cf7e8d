package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel"
)

// rangedLayout fixes how an element's rank relates to its ID. The ranged
// select skips sublists by their resident-ID bounds, and how much that
// skips depends entirely on this relation — so the ranged operations are
// checked against the reference under each: IDs correlated with rank (one
// band's residents contiguous in rank order, the logical-PIEO layout the
// bounds are built for), anti-correlated, and unrelated.
type rangedLayout int

const (
	layoutBanded rangedLayout = iota
	layoutAnti
	layoutRandom
	numLayouts
)

func (ly rangedLayout) String() string {
	return [...]string{"banded", "anti", "random"}[ly]
}

// The ID space of the ranged harness: rlBands bands of rlBandWidth IDs.
const (
	rlBands     = 8
	rlBandWidth = 32
	rlIDs       = rlBands * rlBandWidth
	rlTimes     = 8
)

func (ly rangedLayout) rank(id uint32, r uint64) uint64 {
	band := uint64(id / rlBandWidth)
	switch ly {
	case layoutBanded:
		return band<<16 | r&0xffff
	case layoutAnti:
		return (rlBands-1-band)<<16 | r&0xffff
	}
	return r & (rlBands<<16 - 1)
}

// rangedDiff drives a core.List and the reference model through the same
// ranged operations and fails on the first divergence.
type rangedDiff struct {
	t    *testing.T
	ly   rangedLayout
	impl *core.List
	ref  *refmodel.List
}

func newRangedDiff(t *testing.T, ly rangedLayout) *rangedDiff {
	// Sublists of 6 spread the 256 IDs over some 40+ sublists, so every
	// band straddles several and every scan has bounds to consult.
	return &rangedDiff{t: t, ly: ly, impl: core.NewWithSublistSize(rlIDs, 6), ref: refmodel.New(rlIDs)}
}

func (d *rangedDiff) enqueue(id uint32, r uint64, send clock.Time) {
	d.t.Helper()
	e := core.Entry{ID: id % rlIDs, Rank: d.ly.rank(id%rlIDs, r), SendTime: send}
	if got, want := d.impl.Enqueue(e), d.ref.Enqueue(e); got != want {
		d.t.Fatalf("Enqueue(%v) = %v, ref %v", e, got, want)
	}
}

func (d *rangedDiff) dequeueFlow(id uint32) {
	d.t.Helper()
	got, gok := d.impl.DequeueFlow(id)
	want, wok := d.ref.DequeueFlow(id)
	if gok != wok || got != want {
		d.t.Fatalf("DequeueFlow(%d) = %v,%v, ref %v,%v", id, got, gok, want, wok)
	}
}

// want is the reference answer to a ranged select, computed without
// touching the reference: the first entry of its (rank, FIFO) order that
// is eligible and in range.
func (d *rangedDiff) want(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	for _, e := range d.ref.Snapshot() {
		if e.SendTime <= now && e.ID >= lo && e.ID <= hi {
			return e, true
		}
	}
	return core.Entry{}, false
}

func (d *rangedDiff) dequeueRange(now clock.Time, lo, hi uint32) {
	d.t.Helper()
	got, gok := d.impl.DequeueRange(now, lo, hi)
	want, wok := d.ref.DequeueRange(now, lo, hi)
	if gok != wok || got != want {
		d.t.Fatalf("DequeueRange(%v,%d,%d) = %v,%v, ref %v,%v", now, lo, hi, got, gok, want, wok)
	}
}

func (d *rangedDiff) peekRange(now clock.Time, lo, hi uint32) {
	d.t.Helper()
	before := d.impl.Stats()
	got, gok := d.impl.PeekRange(now, lo, hi)
	want, wok := d.want(now, lo, hi)
	if gok != wok || got != want {
		d.t.Fatalf("PeekRange(%v,%d,%d) = %v,%v, ref %v,%v", now, lo, hi, got, gok, want, wok)
	}
	if d.impl.Stats() != before {
		d.t.Fatalf("PeekRange(%v,%d,%d) charged stats", now, lo, hi)
	}
}

func (d *rangedDiff) belowSeq(now clock.Time, lo, hi uint32, limit uint64) {
	d.t.Helper()
	before := d.impl.Stats()
	got, _, elig, taken := d.impl.DequeueRangeBelowSeq(now, lo, hi, limit)
	want, wok := d.want(now, lo, hi)
	if elig != wok || (elig && got != want) {
		d.t.Fatalf("DequeueRangeBelowSeq(%v,%d,%d,%d) = %v,elig %v, ref %v,%v", now, lo, hi, limit, got, elig, want, wok)
	}
	if wantTaken := wok && want.Rank < limit; taken != wantTaken {
		d.t.Fatalf("DequeueRangeBelowSeq(%v,%d,%d,%d) taken = %v for head rank %d", now, lo, hi, limit, taken, want.Rank)
	}
	if taken {
		if _, ok := d.ref.DequeueFlow(got.ID); !ok {
			d.t.Fatalf("reference lost id %d", got.ID)
		}
	} else if d.impl.Stats() != before {
		d.t.Fatalf("DequeueRangeBelowSeq(%v,%d,%d,%d) peeked but charged stats", now, lo, hi, limit)
	}
}

// check compares sizes and runs the invariant suite, which holds the
// resident-ID bounds conservative for every active sublist and cleared
// for every empty one.
func (d *rangedDiff) check() {
	d.t.Helper()
	if d.impl.Len() != d.ref.Len() {
		d.t.Fatalf("Len = %d, ref %d", d.impl.Len(), d.ref.Len())
	}
	if err := d.impl.CheckInvariants(); err != nil {
		d.t.Fatal(err)
	}
}

// ranged issues one of the three ranged operations, chosen by op.
func (d *rangedDiff) ranged(op int, now clock.Time, lo, hi uint32, limit uint64) {
	d.t.Helper()
	switch op % 3 {
	case 0:
		d.dequeueRange(now, lo, hi)
	case 1:
		d.peekRange(now, lo, hi)
	case 2:
		d.belowSeq(now, lo, hi, limit)
	}
}

// gut point-dequeues every resident of the band but the keep-th, which
// leaves the bounds of the sublists it sat in as wide as they were.
func (d *rangedDiff) gut(band, keep uint32) {
	d.t.Helper()
	for i := uint32(0); i < rlBandWidth; i++ {
		if i != keep {
			d.dequeueFlow(band*rlBandWidth + i)
		}
	}
}

// TestRangedDifferentialLayouts runs DequeueRange, PeekRange and
// DequeueRangeBelowSeq against the reference model under the three
// ID↔rank layouts. Each round mixes inserts, point removals and ranged
// selects over single bands, band runs and arbitrary ranges, then guts
// whole bands (bounds left stale-wide over what remains) and selects
// across all of them before refilling.
func TestRangedDifferentialLayouts(t *testing.T) {
	for ly := rangedLayout(0); ly < numLayouts; ly++ {
		for seed := int64(0); seed < 4; seed++ {
			ly, seed := ly, seed
			t.Run(fmt.Sprintf("%s/seed%d", ly, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				d := newRangedDiff(t, ly)
				limits := []uint64{0, rlBands << 15, ^uint64(0)}
				span := func() (lo, hi uint32) {
					switch rng.Intn(3) {
					case 0: // one band
						lo = uint32(rng.Intn(rlBands)) * rlBandWidth
						return lo, lo + rlBandWidth - 1
					case 1: // a run of bands
						b := rng.Intn(rlBands)
						return uint32(b) * rlBandWidth, uint32(b+1+rng.Intn(rlBands-b))*rlBandWidth - 1
					}
					lo = uint32(rng.Intn(rlIDs))
					return lo, lo + uint32(rng.Intn(rlIDs))
				}
				for round := 0; round < 3; round++ {
					for step := 0; step < 1500; step++ {
						switch rng.Intn(8) {
						case 0, 1, 2, 3:
							d.enqueue(uint32(rng.Intn(rlIDs)), rng.Uint64(), clock.Time(rng.Intn(rlTimes)))
						case 4:
							d.dequeueFlow(uint32(rng.Intn(rlIDs)))
						default:
							lo, hi := span()
							d.ranged(rng.Intn(3), clock.Time(rng.Intn(rlTimes)), lo, hi, limits[rng.Intn(len(limits))])
						}
						d.check()
					}
					for _, band := range rng.Perm(rlBands)[:rlBands/2] {
						d.gut(uint32(band), uint32(rng.Intn(rlBandWidth)))
						d.check()
					}
					for step := 0; step < 200; step++ {
						lo, hi := span()
						d.ranged(rng.Intn(3), clock.Time(rng.Intn(rlTimes)), lo, hi, limits[rng.Intn(len(limits))])
						d.check()
					}
				}
			})
		}
	}
}

// TestRangedSelectReadsOnlyItsBand pins what the bounds buy in the layout
// they are built for: with every band's residents contiguous in rank
// order, a ranged dequeue on the LAST band reads the sublists that band
// shares with its neighbour at most — not, as before the bounds, every
// time-eligible sublist ahead of it.
func TestRangedSelectReadsOnlyItsBand(t *testing.T) {
	d := newRangedDiff(t, layoutBanded)
	for id := uint32(0); id < rlIDs; id++ {
		d.enqueue(id, uint64(id), clock.Always)
	}
	d.check()
	const lo, hi = (rlBands - 1) * rlBandWidth, rlIDs - 1
	before := d.impl.Stats()
	d.dequeueRange(0, lo, hi)
	after := d.impl.Stats()
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
	d := newRangedDiff(t, layoutBanded)
	for id := uint32(0); id < rlIDs; id++ {
		d.enqueue(id, uint64(id), clock.Always)
	}
	const lo, hi = (rlBands - 1) * rlBandWidth, rlIDs - 1
	for id := uint32(lo); id <= hi; id++ {
		d.dequeueFlow(id)
	}
	d.check()

	reads := func(op func()) uint64 {
		before := d.impl.Stats().SublistReads
		op()
		return d.impl.Stats().SublistReads - before
	}
	d.peekRange(0, lo, hi)
	first := reads(func() { d.dequeueRange(0, lo, hi) })
	if first == 0 {
		t.Fatal("no sublist kept stale bounds over the gutted band; the test lost its premise")
	}
	d.check()
	if again := reads(func() { d.dequeueRange(0, lo, hi) }); again != 0 {
		t.Fatalf("second ranged miss read %d sublists, want 0 (the first read %d and should have tightened them)", again, first)
	}
}

// FuzzRangedLayouts interprets the byte stream as a program of ranged
// operations under the layout its first byte selects, against the
// reference model and the invariant suite. The seed corpus holds one
// removal-heavy program per layout.
func FuzzRangedLayouts(f *testing.F) {
	for ly := byte(0); ly < byte(numLayouts); ly++ {
		prog := []byte{ly}
		for id := byte(0); id < 72; id += 2 { // half-fill the first bands
			prog = append(prog, 0, id, id*7, id%rlTimes)
		}
		prog = append(prog, 5, 1, 8, 5, 0, 2) // gut bands 1 and 0
		for band := byte(0); band < 3; band++ {
			for op := byte(2); op <= 4; op++ {
				prog = append(prog, op, 7, band, 1, op, 7, band, 0)
			}
		}
		f.Add(prog)
	}
	f.Add([]byte{2, 0, 1, 2, 3, 0, 200, 4, 5, 2, 3, 0, 7, 4, 7, 6, 2, 1, 33, 3, 7, 1, 0})

	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			return
		}
		if len(program) > 4096 {
			program = program[:4096]
		}
		d := newRangedDiff(t, rangedLayout(program[0]%byte(numLayouts)))
		i := 1
		arg := func() byte {
			if i < len(program) {
				b := program[i]
				i++
				return b
			}
			return 0
		}
		for i < len(program) {
			switch op := arg() % 6; op {
			case 0: // enqueue(id, rank bits, send)
				id := uint32(arg())
				d.enqueue(id, uint64(arg())<<8|uint64(id), clock.Time(arg()%rlTimes))
			case 1: // dequeue(flow)
				d.dequeueFlow(uint32(arg()))
			case 2, 3, 4: // ranged select (now, first band, extra bands)
				now := clock.Time(arg() % rlTimes)
				lo := uint32(arg()%rlBands) * rlBandWidth
				hi := lo + uint32(arg()%rlBands+1)*rlBandWidth - 1
				d.ranged(int(op), now, lo, hi, uint64(arg())<<11)
			case 5: // gut a band, keeping one resident
				d.gut(uint32(arg()%rlBands), uint32(arg()%rlBandWidth))
			}
			d.check()
		}
	})
}
