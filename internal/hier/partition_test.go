package hier

import (
	"errors"
	"math"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/flowq"
)

func newTestPartitioner() *Partitioner {
	return NewPartitioner(backend.NewCoreList(4096))
}

func mustAlloc(t *testing.T, pt *Partitioner, capacity int, wall bool) *Partition {
	t.Helper()
	p, err := pt.Alloc(capacity, wall)
	if err != nil {
		t.Fatalf("alloc %d: %v", capacity, err)
	}
	return p
}

// TestPartitionAllocErrors covers the allocator's refusal paths: bad
// capacity and ID-space exhaustion.
func TestPartitionAllocErrors(t *testing.T) {
	pt := newTestPartitioner()
	if _, err := pt.Alloc(0, false); err == nil {
		t.Fatal("alloc(0) succeeded")
	}
	if _, err := pt.Alloc(-3, false); err == nil {
		t.Fatal("alloc(-3) succeeded")
	}
	// Two 2^31-wide bands exhaust [0, 2^32); the third must fail.
	mustAlloc(t, pt, 1<<31, false)
	mustAlloc(t, pt, 1<<31, false)
	if _, err := pt.Alloc(1, false); err == nil {
		t.Fatal("alloc beyond 2^32 succeeded")
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionAllocHugeWallBand is the regression test for the wheel
// hint: a wall partition's wheel used to pre-size its node arena to the
// band width, so a 2^31-wide wall band (or either half of its Split)
// asked for ~2^31 nodes up front and died out of memory. The arena is
// sized to at most a window's worth and grows with real residents.
func TestPartitionAllocHugeWallBand(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 1<<31, true)
	id, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 3, SendTime: 40}); err != nil {
		t.Fatal(err)
	}
	q, err := pt.Split(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cap() != 1<<30 || q.Cap() != 1<<30 || !q.Wall() {
		t.Fatalf("split of a 2^31 wall band gave caps %d/%d wall=%v", p.Cap(), q.Cap(), q.Wall())
	}
	if got, ok := p.MinSendTime(); !ok || got != 40 {
		t.Fatalf("MinSendTime = %d,%v want 40", got, ok)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRankWidthBoundary is the rank-region boundary property,
// held over partitions reached every way a partition comes to be — fresh
// from Alloc (regions 0 and 1), the upper half of a Split (sharing its
// parent's region) and the survivor of a relocating Grow: ranks 2^R-2 and
// 2^R-1 are accepted, come back exactly as given and in that order; rank
// 2^R is refused with ErrRankOverflow by both Enqueue and UpdateRank, and
// the refusal touches neither the backend nor the partition's books.
func TestPartitionRankWidthBoundary(t *testing.T) {
	pt := newTestPartitioner()
	first := mustAlloc(t, pt, 8, true)
	second := mustAlloc(t, pt, 8, false)
	upper, err := pt.Split(second)
	if err != nil {
		t.Fatal(err)
	}
	grown := mustAlloc(t, pt, 4, false)
	mustAlloc(t, pt, 4, false) // blocks in-place growth of grown
	keep, _ := grown.NextID()
	if err := pt.Enqueue(grown, core.Entry{ID: keep, Rank: 1, SendTime: 1000}); err != nil {
		t.Fatal(err)
	}
	if remap, err := pt.Grow(grown, 64); err != nil || len(remap) != 1 {
		t.Fatalf("relocating grow = %v, %v", remap, err)
	}
	if upper.region != second.region || first.region == second.region {
		t.Fatalf("regions: first %#x second %#x upper %#x", first.region, second.region, upper.region)
	}

	const top = uint64(1)<<rankBits - 1
	for name, p := range map[string]*Partition{"first": first, "second": second, "split-upper": upper, "grown": grown} {
		// Enqueued out of rank order, and under a send_time, so the
		// dequeue order is the list's doing.
		hiID, _ := p.NextID()
		loID, _ := p.NextID()
		overID, _ := p.NextID()
		if err := pt.Enqueue(p, core.Entry{ID: hiID, Rank: top, SendTime: 5}); err != nil {
			t.Fatalf("%s: rank 2^R-1: %v", name, err)
		}
		if err := pt.Enqueue(p, core.Entry{ID: loID, Rank: top - 1, SendTime: 5}); err != nil {
			t.Fatalf("%s: rank 2^R-2: %v", name, err)
		}

		beLen, beStats, pLen := pt.Backend().Len(), pt.Backend().Stats(), p.Len()
		if err := pt.Enqueue(p, core.Entry{ID: overID, Rank: top + 1}); !errors.Is(err, ErrRankOverflow) {
			t.Fatalf("%s: rank 2^R enqueue: %v, want ErrRankOverflow", name, err)
		}
		if ok, err := pt.UpdateRank(p, loID, top+1, 5); ok || !errors.Is(err, ErrRankOverflow) {
			t.Fatalf("%s: rank 2^R update = %v, %v, want ErrRankOverflow", name, ok, err)
		}
		if pt.Backend().Len() != beLen || pt.Backend().Stats() != beStats || p.Len() != pLen || p.Contains(overID) {
			t.Fatalf("%s: refusal moved state: backend %d->%d, partition %d->%d", name, beLen, pt.Backend().Len(), pLen, p.Len())
		}
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		if ok, err := pt.UpdateRank(p, loID, top-1, 6); !ok || err != nil {
			t.Fatalf("%s: in-width update = %v, %v", name, ok, err)
		}
		if e, ok := pt.Dequeue(p, 6); !ok || e != (core.Entry{ID: loID, Rank: top - 1, SendTime: 6}) {
			t.Fatalf("%s: first dequeue = %+v,%v want id %d rank 2^R-2", name, e, ok, loID)
		}
		if e, ok := pt.DequeueID(p, hiID); !ok || e != (core.Entry{ID: hiID, Rank: top, SendTime: 5}) {
			t.Fatalf("%s: point dequeue = %+v,%v want id %d rank 2^R-1", name, e, ok, hiID)
		}
	}
	if e, ok := pt.Dequeue(grown, clock.Never); !ok || e.Rank != 1 {
		t.Fatalf("relocated resident = %+v,%v want rank 1", e, ok)
	}
}

// TestPartitionedRankOverflowFaultPath takes the refusal through the
// hierarchy's existing enqueue-failure path: a Strict hierarchy panics, a
// non-strict one charges EnqueueFailures to the node whose logical PIEO
// refused, keeps the typed error, and stays consistent.
func TestPartitionedRankOverflowFaultPath(t *testing.T) {
	build := func(strict bool) (*Hierarchy, *Node) {
		h := NewPartitioned(40, RoundRobin())
		h.Strict = strict
		vm := h.Root().AddNode("vm", StrictPriority())
		vm.AddFlow(0).Priority = 1 << rankBits
		vm.AddFlow(1).Priority = 1<<rankBits - 1
		h.Build()
		return h, vm
	}

	h, vm := build(false)
	h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100, Seq: 1})
	if got := h.FaultStats().EnqueueFailures; got != 1 || vm.FaultStats().EnqueueFailures != 1 {
		t.Fatalf("enqueue failures: hierarchy %d, node %d, want 1/1", got, vm.FaultStats().EnqueueFailures)
	}
	if !errors.Is(h.LastFault(), ErrRankOverflow) {
		t.Fatalf("LastFault = %v, want ErrRankOverflow", h.LastFault())
	}
	if h.Level(0).Len() != 0 || vm.Partition().Len() != 0 {
		t.Fatalf("refused child left residue: backend %d, partition %d", h.Level(0).Len(), vm.Partition().Len())
	}
	// The widest rank that fits schedules normally.
	h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Seq: 2})
	if p, ok := h.NextPacket(0); !ok || p.Flow != 1 {
		t.Fatalf("NextPacket = %+v,%v want flow 1", p, ok)
	}
	if err := h.Partitioner().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	h, _ = build(true)
	defer func() {
		if recover() == nil {
			t.Fatal("strict hierarchy did not panic on a rank wider than the region")
		}
	}()
	h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100, Seq: 1})
}

// TestPartitionWakeSummaries covers the wall/virtual split of the
// per-range eligibility summary: wall partitions answer MinSendTime and
// NextWakeAfter exactly, virtual partitions decline.
func TestPartitionWakeSummaries(t *testing.T) {
	pt := newTestPartitioner()
	wallP := mustAlloc(t, pt, 5000, true) // also exercises the 4096-slot wheel cap
	virtP := mustAlloc(t, pt, 8, false)
	if !wallP.Wall() || virtP.Wall() {
		t.Fatalf("Wall() flags wrong: %v %v", wallP.Wall(), virtP.Wall())
	}
	if _, ok := virtP.MinSendTime(); ok {
		t.Fatal("virtual partition reported a MinSendTime")
	}
	if got := virtP.NextWakeAfter(0); got != clock.Never {
		t.Fatalf("virtual partition NextWakeAfter = %d, want Never", got)
	}
	if _, ok := wallP.MinSendTime(); ok {
		t.Fatal("empty wall partition reported a MinSendTime")
	}

	for i, st := range []clock.Time{900, 300, 600} {
		id, _ := wallP.NextID()
		if err := pt.Enqueue(wallP, core.Entry{ID: id, Rank: uint64(i), SendTime: st}); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := wallP.MinSendTime(); !ok || got != 300 {
		t.Fatalf("MinSendTime = %d,%v want 300", got, ok)
	}
	if got := wallP.NextWakeAfter(300); got != 600 {
		t.Fatalf("NextWakeAfter(300) = %d, want 600", got)
	}
	if got := wallP.NextWakeAfter(900); got != clock.Never {
		t.Fatalf("NextWakeAfter(900) = %d, want Never", got)
	}
	if ps := pt.Partitions(); len(ps) != 2 || ps[0] != wallP || ps[1] != virtP {
		t.Fatalf("Partitions() = %v", ps)
	}
}

// TestPartitionEnqueueErrors covers the admission refusals: out-of-band
// IDs, duplicates, and a full shared backend.
func TestPartitionEnqueueErrors(t *testing.T) {
	pt := NewPartitioner(backend.NewCoreList(1))
	p := mustAlloc(t, pt, 4, false)
	if err := pt.Enqueue(p, core.Entry{ID: p.Hi() + 1}); err == nil {
		t.Fatal("out-of-band enqueue succeeded")
	}
	id, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 2}); !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("duplicate enqueue: %v", err)
	}
	id2, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id2, Rank: 3}); !errors.Is(err, core.ErrFull) {
		t.Fatalf("over-capacity enqueue: %v", err)
	}
	// The failed admissions must not be tracked.
	if p.Len() != 1 {
		t.Fatalf("partition tracks %d residents, want 1", p.Len())
	}
	if _, ok := pt.DequeueID(p, id2); ok {
		t.Fatal("point dequeue hit an element that was never admitted")
	}
}

// TestPartitionNextIDExhaustion covers the band-full NextID path.
func TestPartitionNextIDExhaustion(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 2, false)
	for i := 0; i < p.Cap(); i++ {
		if _, ok := p.NextID(); !ok {
			t.Fatalf("NextID refused with %d of %d handed out", i, p.Cap())
		}
	}
	if _, ok := p.NextID(); ok {
		t.Fatal("NextID handed out an ID beyond the band")
	}
}

// TestPartitionUpdateRankResync covers UpdateRank's failure handling:
// non-resident IDs miss cleanly, and when the capability fallback drops
// the element mid-flight the partition resyncs its resident set instead
// of tracking a ghost.
func TestPartitionUpdateRankResync(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 8, true)
	if ok, err := pt.UpdateRank(p, p.Lo(), 1, 2); ok || err != nil {
		t.Fatalf("non-resident UpdateRank = %v, %v", ok, err)
	}

	// A wrapped backend without the RankUpdater capability forces the
	// dequeue+enqueue fallback; the injected error on the re-enqueue
	// loses the element, which UpdateRank must notice and untrack.
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 1, ErrorEvery: 1})
	inj.Disarm()
	ptf := NewPartitioner(faultinject.Wrap(backend.NewCoreList(64), inj))
	pf := mustAlloc(t, ptf, 8, true)
	id, _ := pf.NextID()
	if err := ptf.Enqueue(pf, core.Entry{ID: id, Rank: 5, SendTime: 7}); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	ok, err := ptf.UpdateRank(pf, id, 9, 11)
	inj.Disarm()
	if err == nil && ok {
		// The injector may have hit the dequeue instead; either way the
		// element must not be double-tracked.
		t.Skip("injection missed the enqueue leg")
	}
	if pf.Len() != ptf.Backend().Len() {
		t.Fatalf("partition tracks %d, backend holds %d after failed update", pf.Len(), ptf.Backend().Len())
	}
	if err := ptf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSplitNarrowAndUsed covers Split's refusal on a width-1
// band and the used-counter redistribution when the cursor is past the
// midpoint.
func TestPartitionSplitNarrowAndUsed(t *testing.T) {
	pt := newTestPartitioner()
	p1 := mustAlloc(t, pt, 1, false)
	if _, err := pt.Split(p1); err == nil {
		t.Fatal("split of width-1 band succeeded")
	}

	p := mustAlloc(t, pt, 8, true)
	for i := 0; i < 6; i++ { // cursor past the midpoint (4)
		id, _ := p.NextID()
		if err := pt.Enqueue(p, core.Entry{ID: id, Rank: uint64(i), SendTime: clock.Time(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	q, err := pt.Split(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || q.Len() != 2 {
		t.Fatalf("split residents %d/%d, want 4/2", p.Len(), q.Len())
	}
	// Both halves may hand out their remaining IDs without collision.
	if _, ok := p.NextID(); ok {
		t.Fatal("lower half handed out an ID past its cursor")
	}
	for {
		id, ok := q.NextID()
		if !ok {
			break
		}
		if err := pt.Enqueue(q, core.Entry{ID: id, Rank: 50}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The wheels migrated: each half answers for exactly its residents.
	if got, ok := q.MinSendTime(); !ok || got != 0 {
		// q inherited send_times 104,105 plus fresh rank-50 entries at 0.
		t.Fatalf("upper half MinSendTime = %d,%v", got, ok)
	}
	if got, ok := p.MinSendTime(); !ok || got != 100 {
		t.Fatalf("lower half MinSendTime = %d,%v want 100", got, ok)
	}
}

// TestPartitionRetiredPanics covers the use-after-retire guard.
func TestPartitionRetiredPanics(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 4, true)
	id, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 1}); err != nil {
		t.Fatal(err)
	}
	pt.Retire(p)
	if pt.Backend().Len() != 0 {
		t.Fatalf("retire left %d elements in the backend", pt.Backend().Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue on retired partition did not panic")
		}
	}()
	_ = pt.Enqueue(p, core.Entry{ID: id})
}

// TestPartitionGrowInPlaceAndRelocate covers both Grow paths and the
// no-op when the band is already wide enough.
func TestPartitionGrowInPlaceAndRelocate(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 4, true)
	for i := 0; i < 3; i++ {
		id, _ := p.NextID()
		if err := pt.Enqueue(p, core.Entry{ID: id, Rank: uint64(10 - i), SendTime: clock.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if remap, err := pt.Grow(p, 2); err != nil || remap != nil {
		t.Fatalf("shrinking grow = %v, %v", remap, err)
	}
	// Nothing above p yet: in-place growth, no remap.
	if remap, err := pt.Grow(p, 16); err != nil || remap != nil {
		t.Fatalf("in-place grow = %v, %v", remap, err)
	} else if p.Cap() != 16 {
		t.Fatalf("cap %d after in-place grow, want 16", p.Cap())
	}
	// A neighbor directly above forces relocation.
	blocker := mustAlloc(t, pt, 16, false)
	if blocker.Lo() != p.Hi()+1 {
		t.Fatalf("blocker not adjacent: %d vs %d", blocker.Lo(), p.Hi())
	}
	remap, err := pt.Grow(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if remap == nil || len(remap) != 3 {
		t.Fatalf("relocating grow remap = %v", remap)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Dequeue order survived the move: ranks were 10, 9, 8.
	for want := uint64(8); want <= 10; want++ {
		e, ok := pt.Dequeue(p, clock.Never)
		if !ok || e.Rank != want {
			t.Fatalf("post-relocation dequeue = %+v,%v want rank %d", e, ok, want)
		}
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionReleaseCoalescing drives alloc/retire patterns that force
// both coalescing directions in the free list, including at the 2^32
// boundary.
func TestPartitionReleaseCoalescing(t *testing.T) {
	pt := newTestPartitioner()
	var ps []*Partition
	for i := 0; i < 8; i++ {
		ps = append(ps, mustAlloc(t, pt, 16, false))
	}
	// Retire in an order that exercises left-, right-, and two-sided
	// coalescing: middle, its right neighbor, its left neighbor, rest.
	for _, i := range []int{4, 5, 3, 0, 7, 1, 6, 2} {
		pt.Retire(ps[i])
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("after retiring #%d: %v", i, err)
		}
	}
	if len(pt.free) != 1 || pt.free[0].lo != 0 || pt.free[0].hi != math.MaxUint32 {
		t.Fatalf("free list did not re-coalesce: %v", pt.free)
	}
}
