// Logical PIEO partitioning (§4.2): many logical schedulers multiplexed
// onto ONE physical PIEO. Each logical scheduler owns a contiguous band
// of the 32-bit element-ID space, and extracting from it is a ranged
// dequeue whose predicate is the paper's
// (eligible) && (band.lo <= f.index <= band.hi) — on the sharded engine
// that compiles down to per-shard DequeueRangeBelowSeq calls under the
// ranged tournament, on core.List to a select over the pointer array's
// cached send_times and resident-ID bounds. Every hierarchy node reaches
// its list this way: the per-level arrangement gives each depth its own
// Partitioner, the partitioned arrangement shares one across all depths.
//
// The Partitioner compiles those bands once, for a topology that never
// changes afterwards: a bump allocator over [0, 2^32) hands each logical
// scheduler the next band of exactly the width it asked for, and a band
// lives as long as the Partitioner. Per partition it keeps a small binary
// min-heap of resident send_times (DESIGN.md §11): the shared backend's
// MinSendTime mixes every tenant's time domain, so per-range wake-ups and
// the WF²Q+ floor of the owning node must come from a per-range index.
//
// Each partition also owns a rank region: its elements are stored in the
// shared list under region<<rankBits | rank, so one band's residents sit
// contiguously in the list's global rank order instead of interleaved
// with every other band's (whose ranks live in unrelated wall and virtual
// time domains), and a ranged dequeue finds them in O(1) sublists. The
// region never reaches the caller: ranks are checked against rankBits on
// the way in and masked on the way out (DESIGN.md §13).
//
// Concurrency/memory-ordering contract: the Partitioner's bookkeeping
// (bands, slots, heaps) is NOT synchronized — it assumes a single caller
// thread, exactly like the hierarchy that owns it. The shared backend may
// be internally concurrent (the sharded engine takes its own per-shard
// locks), but the Partitioner never relies on that: all happens-before
// edges between partition bookkeeping and backend state come from the
// single caller's program order. See DESIGN.md §13.
package hier

import (
	"errors"
	"fmt"
	"sort"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// rankBits is the width of the policy rank a partition accepts; the top
// 64-rankBits bits of the stored rank hold the partition's region. 2^48 ns
// is 78 hours of wall or virtual time.
const (
	rankBits = 48
	rankMask = 1<<rankBits - 1
	regions  = 1 << (64 - rankBits)
)

// idSpace is the size of the element-ID space the bands are cut from.
const idSpace = 1 << 32

// ErrRankOverflow is returned (wrapped) by Partitioner.Enqueue for a rank
// that does not fit in rankBits bits. The element is refused, never stored
// under a truncated rank: that would reorder it.
var ErrRankOverflow = errors.New("hier: rank exceeds the partition rank width")

// absent marks an untracked offset; a tracked one holds its heap position.
const absent int32 = -1

// wake is one partition's heap entry: a resident's send_time and its band
// offset (id - lo), which names its slot.
type wake struct {
	t   clock.Time
	off uint32
}

// Partition is one logical PIEO: a band of the shared backend's ID space
// plus a min-heap of its residents' send_times, which answers both the
// partition's MinSendTime (the wake summary) and its owner's minimum
// resident start (the WF²Q+ floor) exactly per range.
type Partition struct {
	lo, hi uint32 // the band, inclusive

	// region is the partition's rank region, already shifted into the top
	// bits. It is a locality hint only — the band filter alone decides what
	// a ranged dequeue may return — so partitions may share one:
	// allocations 2^16 apart do.
	region uint64

	// heap is a binary min-heap by send_time over the partition's
	// residents; heap[0] is the partition's MinSendTime.
	heap []wake

	// slots[off] is the heap position of the resident at band offset off,
	// absent otherwise. It grows with the highest offset ever tracked,
	// never with the band: a band may be 2^31 IDs wide and all but unused.
	slots []int32
}

// residents counts the tracked offsets: nothing on the packet path asks.
func (p *Partition) residents() int {
	n := 0
	for _, h := range p.slots {
		if h != absent {
			n++
		}
	}
	return n
}

// tracks reports whether id is resident in this partition. An id below
// the band wraps to a huge offset and fails the comparison too.
func (p *Partition) tracks(id uint32) bool {
	off := id - p.lo
	return uint64(off) < uint64(len(p.slots)) && p.slots[off] != absent
}

// MinSendTime returns the exact smallest send_time among the partition's
// resident elements; ok is false when it holds none.
func (p *Partition) MinSendTime() (clock.Time, bool) {
	if len(p.heap) == 0 {
		return 0, false
	}
	return p.heap[0].t, true
}

// wakeAfter returns the smallest resident send_time after now in the heap
// below position i, or best when none is smaller. A resident after now
// bounds its whole subtree, so the walk descends only through residents
// eligible at now and prunes every subtree that cannot beat best.
func (p *Partition) wakeAfter(i int, now, best clock.Time) clock.Time {
	if i >= len(p.heap) || p.heap[i].t >= best {
		return best
	}
	if t := p.heap[i].t; t > now {
		return t
	}
	return p.wakeAfter(2*i+2, now, p.wakeAfter(2*i+1, now, best))
}

// minStart is the policy.Node MinStart of the node that owns p: the top
// of its send-time heap.
func (p *Partition) minStart() clock.Time {
	if t, ok := p.MinSendTime(); ok {
		return t
	}
	return clock.Never
}

// track records a resident element in the partition's heap.
func (p *Partition) track(id uint32, sendTime clock.Time) {
	off := id - p.lo
	for int(off) >= len(p.slots) {
		p.slots = append(p.slots, absent)
	}
	p.heap = append(p.heap, wake{sendTime, off})
	p.up(len(p.heap) - 1)
}

// untrack removes the resident at band offset off from the heap. The last
// heap entry fills the hole and sifts whichever way restores order.
func (p *Partition) untrack(off uint32) {
	i, last := int(p.slots[off]), len(p.heap)-1
	moved := p.heap[last]
	p.heap = p.heap[:last]
	if i < last {
		p.heap[i] = moved
		if !p.down(i) {
			p.up(i)
		}
	}
	p.slots[off] = absent
}

// place stores w at heap position i and records the position in its slot.
func (p *Partition) place(i int, w wake) {
	p.heap[i] = w
	p.slots[w.off] = int32(i)
}

// up sifts heap[i] toward the root.
func (p *Partition) up(i int) {
	w := p.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if p.heap[parent].t <= w.t {
			break
		}
		p.place(i, p.heap[parent])
		i = parent
	}
	p.place(i, w)
}

// down sifts heap[i] toward the leaves and reports whether it moved.
func (p *Partition) down(i int) bool {
	w, start, n := p.heap[i], i, len(p.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && p.heap[c+1].t < p.heap[c].t {
			c++
		}
		if w.t <= p.heap[c].t {
			break
		}
		p.place(i, p.heap[c])
		i = c
	}
	p.place(i, w)
	return i > start
}

// Partitioner owns one shared physical backend and cuts its ID space into
// per-logical-scheduler bands, lowest first.
type Partitioner struct {
	be    backend.Backend
	parts []*Partition // in allocation order, which is band order
	next  uint64       // first unallocated ID; idSpace when exhausted
}

// NewPartitioner wraps a shared backend the caller constructed (and must
// use exclusively through the returned Partitioner).
func NewPartitioner(be backend.Backend) *Partitioner {
	return &Partitioner{be: be}
}

// Backend exposes the shared physical backend for stats and tests.
func (pt *Partitioner) Backend() backend.Backend { return pt.be }

// Alloc creates a partition whose band names exactly capacity IDs.
// Regions are handed out round-robin.
func (pt *Partitioner) Alloc(capacity int) (*Partition, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("hier: partition capacity must be positive, got %d", capacity)
	}
	if left := idSpace - pt.next; uint64(capacity) > left {
		return nil, fmt.Errorf("hier: id space exhausted: band of %d ids asked, %d left", capacity, left)
	}
	p := &Partition{
		lo:     uint32(pt.next),
		hi:     uint32(pt.next + uint64(capacity) - 1),
		region: (uint64(len(pt.parts)) % regions) << rankBits,
	}
	pt.next += uint64(capacity)
	pt.parts = append(pt.parts, p)
	return p, nil
}

// Enqueue inserts e into the partition's logical PIEO. The entry's ID
// must lie in the band and its rank must fit in rankBits bits; a resident
// ID is refused by the backend itself.
func (pt *Partitioner) Enqueue(p *Partition, e core.Entry) error {
	if e.Rank > rankMask {
		return fmt.Errorf("%w: id %d rank %d needs more than %d bits", ErrRankOverflow, e.ID, e.Rank, rankBits)
	}
	e.Rank |= p.region
	if err := pt.be.Enqueue(e); err != nil {
		return err
	}
	p.track(e.ID, e.SendTime)
	return nil
}

// Dequeue extracts the smallest-ranked eligible element of the
// partition's band at time t — the §4.2 ranged predicate against the
// shared structure — and masks the region off its rank. It leaves the
// partition's heap alone: a corrupted backend may return anything, so the
// caller first checks the element is one of the band's residents and then
// untracks its offset.
func (pt *Partitioner) Dequeue(p *Partition, t clock.Time) (core.Entry, bool) {
	e, ok := pt.be.DequeueRange(t, p.lo, p.hi)
	e.Rank &= rankMask
	return e, ok
}

// CheckInvariants validates every partition against the shared backend:
// the bands must tile [0, next) in order, every backend-resident element
// must be tracked by exactly the partition whose band covers it (no
// cross-partition leakage) and stored under that partition's rank region,
// and each partition's heap must hold exactly its residents' send_times,
// in heap order, at the positions their slots record.
func (pt *Partitioner) CheckInvariants() error {
	next := uint64(0)
	for _, p := range pt.parts {
		if uint64(p.lo) != next || p.hi < p.lo {
			return fmt.Errorf("hier: band [%d,%d] does not start at %d", p.lo, p.hi, next)
		}
		next = uint64(p.hi) + 1
	}
	if next != pt.next || next > idSpace {
		return fmt.Errorf("hier: bands end at %d, allocator at %d", next, pt.next)
	}
	// Residency: bucket the backend's snapshot by band.
	held := make([]int, len(pt.parts))
	for _, e := range pt.be.Snapshot() {
		i := sort.Search(len(pt.parts), func(i int) bool { return pt.parts[i].hi >= e.ID })
		if i == len(pt.parts) {
			return fmt.Errorf("hier: backend element id %d outside every partition band", e.ID)
		}
		p := pt.parts[i]
		if !p.tracks(e.ID) {
			return fmt.Errorf("hier: backend element id %d not tracked by its partition [%d,%d]", e.ID, p.lo, p.hi)
		}
		if e.Rank&^rankMask != p.region {
			return fmt.Errorf("hier: partition [%d,%d] region %#x holds id %d under stored rank %#x",
				p.lo, p.hi, p.region>>rankBits, e.ID, e.Rank)
		}
		off := e.ID - p.lo
		pos := int(p.slots[off])
		if pos >= len(p.heap) || p.heap[pos].off != off {
			return fmt.Errorf("hier: partition [%d,%d] slot of id %d names heap position %d, which holds another",
				p.lo, p.hi, e.ID, pos)
		}
		if got := p.heap[pos].t; got != e.SendTime {
			return fmt.Errorf("hier: partition [%d,%d] heap has t=%d for id %d, backend says %d",
				p.lo, p.hi, got, e.ID, e.SendTime)
		}
		held[i]++
	}
	total := 0
	for i, p := range pt.parts {
		tracked := p.residents()
		if held[i] != tracked {
			return fmt.Errorf("hier: partition [%d,%d] tracks %d residents, backend holds %d",
				p.lo, p.hi, tracked, held[i])
		}
		if len(p.heap) != tracked {
			return fmt.Errorf("hier: partition [%d,%d] heap indexes %d, tracks %d",
				p.lo, p.hi, len(p.heap), tracked)
		}
		// Every resident's slot already named a heap entry holding its own
		// offset, and the sizes agree, so positions and slots correspond
		// one to one; what is left is the order.
		for j := 1; j < len(p.heap); j++ {
			if parent := p.heap[(j-1)/2].t; parent > p.heap[j].t {
				return fmt.Errorf("hier: partition [%d,%d] heap out of order at %d: t=%d under parent t=%d",
					p.lo, p.hi, j, p.heap[j].t, parent)
			}
		}
		if uint64(len(p.slots)) > uint64(p.hi-p.lo)+1 {
			return fmt.Errorf("hier: partition [%d,%d] tracks %d offsets, more than its band", p.lo, p.hi, len(p.slots))
		}
		total += tracked
	}
	if got := pt.be.Len(); got != total {
		return fmt.Errorf("hier: partitions track %d residents, backend holds %d", total, got)
	}
	return nil
}
