package hier

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
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

// TestPartitionAllocHugeWallBand pins sizing by use, not by band width: a
// 2^31-wide wall band must not allocate per ID up front. The residency
// array follows the IDs handed out and the heap follows the residents.
func TestPartitionAllocHugeWallBand(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 1<<31, true)
	id, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 3, SendTime: 40}); err != nil {
		t.Fatal(err)
	}
	if p.Cap() != 1<<31 || !p.Wall() || len(p.slots) != 1 || len(p.heap) != 1 {
		t.Fatalf("2^31 wall band: cap %d wall=%v, residency array of %d and heap of %d for 1 id",
			p.Cap(), p.Wall(), len(p.slots), len(p.heap))
	}
	if got, ok := p.MinSendTime(); !ok || got != 40 {
		t.Fatalf("MinSendTime = %d,%v want 40", got, ok)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRankWidthBoundary is the rank-region boundary property,
// held over partitions in different regions and over two that share one
// (regions are handed out round-robin, so allocations 2^16 apart do):
// ranks 2^R-2 and 2^R-1 are accepted, come back exactly as given and in
// that order; rank 2^R is refused with ErrRankOverflow, and the refusal
// touches neither the backend nor the partition's books.
func TestPartitionRankWidthBoundary(t *testing.T) {
	pt := newTestPartitioner()
	first := mustAlloc(t, pt, 8, true)
	second := mustAlloc(t, pt, 8, false)
	for i := 2; i < regions; i++ {
		mustAlloc(t, pt, 1, false)
	}
	wrapped := mustAlloc(t, pt, 8, false)
	if wrapped.region != first.region || first.region == second.region {
		t.Fatalf("regions: first %#x second %#x wrapped %#x", first.region, second.region, wrapped.region)
	}

	const top = uint64(1)<<rankBits - 1
	type ids struct{ hi, lo uint32 }
	parts := []*Partition{first, second, wrapped}
	names := []string{"first", "second", "wrapped"}
	var got []ids
	for i, p := range parts {
		name := names[i]
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
		if pt.Backend().Len() != beLen || pt.Backend().Stats() != beStats || p.Len() != pLen || p.Contains(overID) {
			t.Fatalf("%s: refusal moved state: backend %d->%d, partition %d->%d", name, beLen, pt.Backend().Len(), pLen, p.Len())
		}
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, ids{hiID, loID})
	}
	// Every partition is loaded before any is drained, so the two that
	// share a region hold equal stored ranks side by side in the list.
	for i, p := range parts {
		if e, ok := pt.Dequeue(p, 4); ok {
			t.Fatalf("%s: dequeued %+v before its send_time", names[i], e)
		}
		if e, ok := pt.Dequeue(p, 5); !ok || e != (core.Entry{ID: got[i].lo, Rank: top - 1, SendTime: 5}) {
			t.Fatalf("%s: first dequeue = %+v,%v want id %d rank 2^R-2", names[i], e, ok, got[i].lo)
		}
		if e, ok := pt.Dequeue(p, 5); !ok || e != (core.Entry{ID: got[i].hi, Rank: top, SendTime: 5}) {
			t.Fatalf("%s: second dequeue = %+v,%v want id %d rank 2^R-1", names[i], e, ok, got[i].hi)
		}
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedRankOverflowFaultPath takes the refusal through the
// hierarchy's existing enqueue-failure path: it charges EnqueueFailures
// to the node whose logical PIEO refused, keeps the typed error, and
// stays consistent.
func TestPartitionedRankOverflowFaultPath(t *testing.T) {
	h := NewPartitioned(40, RoundRobin())
	vm := h.Root().AddNode("vm", StrictPriority())
	vm.AddFlow(0).Priority = 1 << rankBits
	vm.AddFlow(1).Priority = 1<<rankBits - 1
	h.Build()

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
}

// TestPartitionWakeSummaries covers the wall/virtual split of the
// per-range eligibility summary: wall partitions answer MinSendTime
// exactly, virtual partitions decline. The wall partition is drained in
// arrival order, which first takes the minimum from the heap's root and
// then residents from inner positions, so the answer after each removal
// depends on the heap restoring its order.
func TestPartitionWakeSummaries(t *testing.T) {
	pt := newTestPartitioner()
	wallP := mustAlloc(t, pt, 5000, true)
	virtP := mustAlloc(t, pt, 8, false)
	if !wallP.Wall() || virtP.Wall() {
		t.Fatalf("Wall() flags wrong: %v %v", wallP.Wall(), virtP.Wall())
	}
	if _, ok := wallP.MinSendTime(); ok {
		t.Fatal("empty wall partition reported a MinSendTime")
	}

	sends := []clock.Time{50, 900, 300, 600, 150, 750, 450, 300}
	for i, st := range sends {
		for _, p := range []*Partition{wallP, virtP} {
			id, _ := p.NextID()
			if err := pt.Enqueue(p, core.Entry{ID: id, Rank: uint64(i), SendTime: st}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok := virtP.MinSendTime(); ok {
		t.Fatal("virtual partition reported a MinSendTime")
	}
	for i := range sends {
		want := slices.Min(sends[i:])
		if got, ok := wallP.MinSendTime(); !ok || got != want {
			t.Fatalf("after %d dequeues: MinSendTime = %d,%v want %d", i, got, ok, want)
		}
		if e, ok := pt.Dequeue(wallP, 900); !ok || e.Rank != uint64(i) {
			t.Fatalf("dequeue %d = %+v,%v want rank %d", i, e, ok, i)
		}
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("after %d dequeues: %v", i+1, err)
		}
	}
	if _, ok := wallP.MinSendTime(); ok {
		t.Fatal("drained wall partition reported a MinSendTime")
	}
	if ps := pt.Partitions(); len(ps) != 2 || ps[0] != wallP || ps[1] != virtP {
		t.Fatalf("Partitions() = %v", ps)
	}
}

// TestPartitionEnqueueErrors covers the admission refusals: out-of-band
// IDs, in-band IDs NextID never handed out, duplicates, and a full shared
// backend.
func TestPartitionEnqueueErrors(t *testing.T) {
	pt := NewPartitioner(backend.NewCoreList(1))
	mustAlloc(t, pt, 4, false)
	p := mustAlloc(t, pt, 4, false)
	for _, id := range []uint32{p.Lo() - 1, p.Hi() + 1} {
		if err := pt.Enqueue(p, core.Entry{ID: id}); err == nil {
			t.Fatalf("out-of-band enqueue of id %d succeeded", id)
		}
	}
	if err := pt.Enqueue(p, core.Entry{ID: p.Lo()}); err == nil {
		t.Fatal("enqueue of an id NextID never issued succeeded")
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
	if p.Contains(id2) || !p.Contains(id) {
		t.Fatalf("Contains: refused id %v, admitted id %v", p.Contains(id2), p.Contains(id))
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
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

// TestPartitionBandExhaustionAt2Pow32 starts the allocator three IDs below
// the top of the ID space: an allocation that does not fit is refused and
// takes nothing, the last ID (2^32-1) is handed out exactly once, and
// neither the band's cursor nor the allocator's wraps to 0.
func TestPartitionBandExhaustionAt2Pow32(t *testing.T) {
	pt := newTestPartitioner()
	mustAlloc(t, pt, 1<<32-3, false)
	two := mustAlloc(t, pt, 2, false)
	if _, err := pt.Alloc(2, false); err == nil {
		t.Fatal("alloc of 2 ids with 1 left succeeded")
	}
	last := mustAlloc(t, pt, 1, true)
	if two.Lo() != math.MaxUint32-2 || two.Hi() != math.MaxUint32-1 || last.Lo() != math.MaxUint32 || last.Hi() != math.MaxUint32 {
		t.Fatalf("bands [%d,%d] [%d,%d], want the top three ids", two.Lo(), two.Hi(), last.Lo(), last.Hi())
	}
	if _, err := pt.Alloc(1, false); err == nil {
		t.Fatal("alloc beyond 2^32 succeeded")
	}
	id, ok := last.NextID()
	if !ok || id != math.MaxUint32 {
		t.Fatalf("NextID = %d,%v want 2^32-1", id, ok)
	}
	if id, ok := last.NextID(); ok {
		t.Fatalf("NextID handed out %d after the last id of the space", id)
	}
	if err := pt.Enqueue(last, core.Entry{ID: id, Rank: 1, SendTime: 9}); err != nil {
		t.Fatal(err)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e, ok := pt.Dequeue(last, 9); !ok || e.ID != math.MaxUint32 {
		t.Fatalf("dequeue = %+v,%v want id 2^32-1", e, ok)
	}
}

// enqueueAt admits one more element to p with the given send_time.
func enqueueAt(t *testing.T, pt *Partitioner, p *Partition, sendTime clock.Time) {
	t.Helper()
	id, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 7, SendTime: sendTime}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionCheckInvariantsReports plants each kind of stray element
// directly in the shared backend, or corrupts the wall partition's heap,
// behind the Partitioner's back, and requires CheckInvariants to name it.
func TestPartitionCheckInvariantsReports(t *testing.T) {
	setup := func() (*Partitioner, *Partition, *Partition) {
		pt := newTestPartitioner()
		a := mustAlloc(t, pt, 4, true)
		b := mustAlloc(t, pt, 4, false)
		enqueueAt(t, pt, a, 3)
		enqueueAt(t, pt, b, 3)
		if err := pt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return pt, a, b
	}
	plant := func(pt *Partitioner, e core.Entry) {
		if err := pt.Backend().Enqueue(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(pt *Partitioner, a, b *Partition)
	}{
		{"outside every band", "outside every partition band", func(pt *Partitioner, a, b *Partition) {
			plant(pt, core.Entry{ID: b.Hi() + 1, Rank: b.region | 1})
		}},
		{"never issued", "not tracked by its partition", func(pt *Partitioner, a, b *Partition) {
			plant(pt, core.Entry{ID: b.Lo() + 3, Rank: b.region | 1})
		}},
		{"issued but not resident", "not tracked by its partition", func(pt *Partitioner, a, b *Partition) {
			id, _ := b.NextID()
			plant(pt, core.Entry{ID: id, Rank: b.region | 1})
		}},
		{"wrong region", "under stored rank", func(pt *Partitioner, a, b *Partition) {
			if _, ok := pt.Backend().DequeueFlow(b.Lo()); !ok {
				t.Fatal("resident element missing")
			}
			plant(pt, core.Entry{ID: b.Lo(), Rank: a.region | 7, SendTime: 3})
		}},
		{"heap disagrees", "heap has t=3", func(pt *Partitioner, a, b *Partition) {
			if _, ok := pt.Backend().DequeueFlow(a.Lo()); !ok {
				t.Fatal("resident element missing")
			}
			plant(pt, core.Entry{ID: a.Lo(), Rank: a.region | 7, SendTime: 4})
		}},
		{"tracked but gone", "backend holds 0", func(pt *Partitioner, a, b *Partition) {
			if _, ok := pt.Backend().DequeueFlow(a.Lo()); !ok {
				t.Fatal("resident element missing")
			}
		}},
		{"heap holds a stray", "heap indexes 2, tracks 1", func(pt *Partitioner, a, b *Partition) {
			a.heap = append(a.heap, wake{t: 8})
		}},
		{"slot disagrees", "names heap position 0", func(pt *Partitioner, a, b *Partition) {
			enqueueAt(t, pt, a, 9)
			a.slots[a.heap[1].off] = 0
		}},
		{"heap out of order", "heap out of order at 1", func(pt *Partitioner, a, b *Partition) {
			enqueueAt(t, pt, a, 9)
			root, child := a.heap[0], a.heap[1]
			a.place(0, child)
			a.place(1, root)
		}},
	} {
		pt, a, b := setup()
		tc.corrupt(pt, a, b)
		if err := pt.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariants = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
