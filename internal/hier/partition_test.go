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
	"pieo/internal/policy"
)

func newTestPartitioner() *Partitioner {
	return NewPartitioner(backend.NewCoreList(4096))
}

func mustAlloc(t *testing.T, pt *Partitioner, capacity int) *Partition {
	t.Helper()
	p, err := pt.Alloc(capacity)
	if err != nil {
		t.Fatalf("alloc %d: %v", capacity, err)
	}
	return p
}

// take is a ranged dequeue with the bookkeeping a hierarchy does after
// checking the element is one of the band's residents.
func take(t *testing.T, pt *Partitioner, p *Partition, at clock.Time) (core.Entry, bool) {
	t.Helper()
	e, ok := pt.Dequeue(p, at)
	if ok {
		if !p.tracks(e.ID) {
			t.Fatalf("ranged dequeue [%d,%d] returned id %d, not a resident", p.lo, p.hi, e.ID)
		}
		p.untrack(e.ID - p.lo)
	}
	return e, ok
}

// TestPartitionAllocErrors covers the allocator's refusal paths: bad
// capacity and ID-space exhaustion.
func TestPartitionAllocErrors(t *testing.T) {
	pt := newTestPartitioner()
	if _, err := pt.Alloc(0); err == nil {
		t.Fatal("alloc(0) succeeded")
	}
	if _, err := pt.Alloc(-3); err == nil {
		t.Fatal("alloc(-3) succeeded")
	}
	// Two 2^31-wide bands exhaust [0, 2^32); the third must fail.
	mustAlloc(t, pt, 1<<31)
	mustAlloc(t, pt, 1<<31)
	if _, err := pt.Alloc(1); err == nil {
		t.Fatal("alloc beyond 2^32 succeeded")
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionAllocHugeWallBand pins sizing by use, not by band width: a
// 2^31-wide band must not allocate per ID up front. The slot array
// follows the highest offset tracked and the heap follows the residents.
func TestPartitionAllocHugeWallBand(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 1<<31)
	if err := pt.Enqueue(p, core.Entry{ID: p.lo, Rank: 3, SendTime: 40}); err != nil {
		t.Fatal(err)
	}
	if p.hi-p.lo != 1<<31-1 || len(p.slots) != 1 || len(p.heap) != 1 {
		t.Fatalf("2^31 band [%d,%d]: slot array of %d and heap of %d for 1 id",
			p.lo, p.hi, len(p.slots), len(p.heap))
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
	first := mustAlloc(t, pt, 8)
	second := mustAlloc(t, pt, 8)
	for i := 2; i < regions; i++ {
		mustAlloc(t, pt, 1)
	}
	wrapped := mustAlloc(t, pt, 8)
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
		hiID, loID, overID := p.lo, p.lo+1, p.lo+2
		if err := pt.Enqueue(p, core.Entry{ID: hiID, Rank: top, SendTime: 5}); err != nil {
			t.Fatalf("%s: rank 2^R-1: %v", name, err)
		}
		if err := pt.Enqueue(p, core.Entry{ID: loID, Rank: top - 1, SendTime: 5}); err != nil {
			t.Fatalf("%s: rank 2^R-2: %v", name, err)
		}

		beLen, beStats, pLen := pt.Backend().Len(), pt.Backend().Stats(), p.residents()
		if err := pt.Enqueue(p, core.Entry{ID: overID, Rank: top + 1}); !errors.Is(err, ErrRankOverflow) {
			t.Fatalf("%s: rank 2^R enqueue: %v, want ErrRankOverflow", name, err)
		}
		if pt.Backend().Len() != beLen || pt.Backend().Stats() != beStats || p.residents() != pLen || p.tracks(overID) {
			t.Fatalf("%s: refusal moved state: backend %d->%d, partition %d->%d", name, beLen, pt.Backend().Len(), pLen, p.residents())
		}
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, ids{hiID, loID})
	}
	// Every partition is loaded before any is drained, so the two that
	// share a region hold equal stored ranks side by side in the list.
	for i, p := range parts {
		if e, ok := take(t, pt, p, 4); ok {
			t.Fatalf("%s: dequeued %+v before its send_time", names[i], e)
		}
		if e, ok := take(t, pt, p, 5); !ok || e != (core.Entry{ID: got[i].lo, Rank: top - 1, SendTime: 5}) {
			t.Fatalf("%s: first dequeue = %+v,%v want id %d rank 2^R-2", names[i], e, ok, got[i].lo)
		}
		if e, ok := take(t, pt, p, 5); !ok || e != (core.Entry{ID: got[i].hi, Rank: top, SendTime: 5}) {
			t.Fatalf("%s: second dequeue = %+v,%v want id %d rank 2^R-1", names[i], e, ok, got[i].hi)
		}
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedRankOverflowFaultPath takes the refusal through the
// hierarchy's existing enqueue-failure path, in either layout: it charges
// EnqueueFailures to the node whose logical PIEO refused, keeps the typed
// error, and stays consistent.
func TestPartitionedRankOverflowFaultPath(t *testing.T) {
	for _, layout := range bothLayouts {
		h := layout.mk(policy.RoundRobin(), func(n int) backend.Backend { return backend.NewCoreList(n) })
		vm := h.Root().AddNode("vm", policy.StrictPriority())
		vm.AddFlow(0).Priority = 1 << rankBits
		vm.AddFlow(1).Priority = 1<<rankBits - 1
		h.Build()

		h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100, Seq: 1})
		if got := h.FaultStats().EnqueueFailures; got != 1 || vm.FaultStats().EnqueueFailures != 1 {
			t.Fatalf("%s: enqueue failures: hierarchy %d, node %d, want 1/1", layout.name, got, vm.FaultStats().EnqueueFailures)
		}
		if !errors.Is(h.LastFault(), ErrRankOverflow) {
			t.Fatalf("%s: LastFault = %v, want ErrRankOverflow", layout.name, h.LastFault())
		}
		if h.Level(1).Len() != 0 || vm.part.residents() != 0 {
			t.Fatalf("%s: refused child left residue: backend %d, partition %d", layout.name, h.Level(1).Len(), vm.part.residents())
		}
		// The widest rank that fits schedules normally.
		h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Seq: 2})
		if p, ok := h.NextPacket(0); !ok || p.Flow != 1 {
			t.Fatalf("%s: NextPacket = %+v,%v want flow 1", layout.name, p, ok)
		}
		checkDepths(t, layout.name, h)
	}
}

// TestPartitionWakeSummaries covers the per-range summary every
// partition keeps: MinSendTime is the exact minimum resident send_time,
// and the owning node's minStart reads the same heap top. The partition
// is drained in arrival order, which first takes the minimum from the
// heap's root and then residents from inner positions, so the answer
// after each removal depends on the heap restoring its order.
func TestPartitionWakeSummaries(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 5000)
	other := mustAlloc(t, pt, 8)
	if _, ok := p.MinSendTime(); ok || p.minStart() != clock.Never {
		t.Fatal("empty partition reported a MinSendTime")
	}

	sends := []clock.Time{50, 900, 300, 600, 150, 750, 450, 300}
	for i, st := range sends {
		for _, q := range []*Partition{p, other} {
			if err := pt.Enqueue(q, core.Entry{ID: q.lo + uint32(i), Rank: uint64(i), SendTime: st}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range sends {
		want := slices.Min(sends[i:])
		if got, ok := p.MinSendTime(); !ok || got != want || p.minStart() != want {
			t.Fatalf("after %d dequeues: MinSendTime = %d,%v minStart %d, want %d", i, got, ok, p.minStart(), want)
		}
		if got, ok := other.MinSendTime(); !ok || got != 50 {
			t.Fatalf("after %d dequeues: untouched partition MinSendTime = %d,%v want 50", i, got, ok)
		}
		if e, ok := take(t, pt, p, 900); !ok || e.Rank != uint64(i) {
			t.Fatalf("dequeue %d = %+v,%v want rank %d", i, e, ok, i)
		}
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("after %d dequeues: %v", i+1, err)
		}
	}
	if _, ok := p.MinSendTime(); ok {
		t.Fatal("drained partition reported a MinSendTime")
	}
	if ps := pt.parts; len(ps) != 2 || ps[0] != p || ps[1] != other {
		t.Fatalf("partitions = %v", ps)
	}
}

// TestPartitionEnqueueErrors covers the admission refusals the
// partition relies on its backend for: a duplicate and a full shared
// backend.
func TestPartitionEnqueueErrors(t *testing.T) {
	pt := NewPartitioner(backend.NewCoreList(2))
	mustAlloc(t, pt, 4)
	p := mustAlloc(t, pt, 4)
	id := p.lo
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 2}); !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("duplicate enqueue: %v", err)
	}
	if err := pt.Enqueue(p, core.Entry{ID: id + 1, Rank: 3}); err != nil {
		t.Fatal(err)
	}
	refused := id + 2
	if err := pt.Enqueue(p, core.Entry{ID: refused, Rank: 3}); !errors.Is(err, core.ErrFull) {
		t.Fatalf("over-capacity enqueue: %v", err)
	}
	// The failed admissions must not be tracked.
	if p.residents() != 2 || len(p.heap) != 2 {
		t.Fatalf("partition tracks %d residents in a heap of %d, want 2", p.residents(), len(p.heap))
	}
	if p.tracks(refused) || !p.tracks(id) {
		t.Fatalf("tracks: refused id %v, admitted id %v", p.tracks(refused), p.tracks(id))
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionBandExhaustionAt2Pow32 starts the allocator three IDs below
// the top of the ID space: an allocation that does not fit is refused and
// takes nothing, the last ID (2^32-1) is a band of its own that tracks
// and extracts like any other, and the allocator never wraps to 0.
func TestPartitionBandExhaustionAt2Pow32(t *testing.T) {
	pt := newTestPartitioner()
	mustAlloc(t, pt, 1<<32-3)
	two := mustAlloc(t, pt, 2)
	if _, err := pt.Alloc(2); err == nil {
		t.Fatal("alloc of 2 ids with 1 left succeeded")
	}
	last := mustAlloc(t, pt, 1)
	if two.lo != math.MaxUint32-2 || two.hi != math.MaxUint32-1 || last.lo != math.MaxUint32 || last.hi != math.MaxUint32 {
		t.Fatalf("bands [%d,%d] [%d,%d], want the top three ids", two.lo, two.hi, last.lo, last.hi)
	}
	if _, err := pt.Alloc(1); err == nil {
		t.Fatal("alloc beyond 2^32 succeeded")
	}
	if err := pt.Enqueue(last, core.Entry{ID: math.MaxUint32, Rank: 1, SendTime: 9}); err != nil {
		t.Fatal(err)
	}
	if len(last.slots) != 1 {
		t.Fatalf("slot array of %d for a one-id band", len(last.slots))
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e, ok := take(t, pt, last, 9); !ok || e.ID != math.MaxUint32 {
		t.Fatalf("dequeue = %+v,%v want id 2^32-1", e, ok)
	}
}

// enqueueAt admits one more element to p, at the next free offset, with
// the given send_time.
func enqueueAt(t *testing.T, pt *Partitioner, p *Partition, sendTime clock.Time) {
	t.Helper()
	if err := pt.Enqueue(p, core.Entry{ID: p.lo + uint32(len(p.heap)), Rank: 7, SendTime: sendTime}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionCheckInvariantsReports plants each kind of stray element
// directly in the shared backend, or corrupts a partition's heap,
// behind the Partitioner's back, and requires CheckInvariants to name it.
func TestPartitionCheckInvariantsReports(t *testing.T) {
	setup := func() (*Partitioner, *Partition, *Partition) {
		pt := newTestPartitioner()
		a := mustAlloc(t, pt, 4)
		b := mustAlloc(t, pt, 4)
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
			plant(pt, core.Entry{ID: b.hi + 1, Rank: b.region | 1})
		}},
		{"beyond the slots", "not tracked by its partition", func(pt *Partitioner, a, b *Partition) {
			plant(pt, core.Entry{ID: b.lo + 3, Rank: b.region | 1})
		}},
		{"slot absent", "not tracked by its partition", func(pt *Partitioner, a, b *Partition) {
			enqueueAt(t, pt, b, 5)
			e, ok := take(t, pt, b, 5)
			if !ok {
				t.Fatal("resident element missing")
			}
			plant(pt, core.Entry{ID: e.ID, Rank: b.region | 1})
		}},
		{"wrong region", "under stored rank", func(pt *Partitioner, a, b *Partition) {
			if _, ok := pt.Backend().DequeueFlow(b.lo); !ok {
				t.Fatal("resident element missing")
			}
			plant(pt, core.Entry{ID: b.lo, Rank: a.region | 7, SendTime: 3})
		}},
		{"heap disagrees", "heap has t=3", func(pt *Partitioner, a, b *Partition) {
			if _, ok := pt.Backend().DequeueFlow(a.lo); !ok {
				t.Fatal("resident element missing")
			}
			plant(pt, core.Entry{ID: a.lo, Rank: a.region | 7, SendTime: 4})
		}},
		{"tracked but gone", "backend holds 0", func(pt *Partitioner, a, b *Partition) {
			if _, ok := pt.Backend().DequeueFlow(a.lo); !ok {
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
