// Logical PIEO partitioning (§4.2): many logical schedulers multiplexed
// onto ONE physical PIEO. Each logical scheduler owns a contiguous band
// of the 32-bit element-ID space, and extracting from it is a ranged
// dequeue whose predicate is the paper's
// (eligible) && (band.lo <= f.index <= band.hi) — on the sharded engine
// that compiles down to per-shard DequeueRangeBelowSeq calls under the
// ranged tournament, on core.List to a select over the pointer array's
// cached send_times and resident-ID bounds.
//
// The Partitioner compiles those bands once, for a topology that never
// changes afterwards: a bump allocator over [0, 2^32) hands each logical
// scheduler the next band of exactly the width it asked for, and a band
// lives as long as the Partitioner. Per wall partition it keeps a small
// binary min-heap of resident send_times (DESIGN.md §11) as the per-range
// eligibility summary: the shared backend's MinSendTime mixes every
// tenant's time domain, so per-range wake-ups must come from a per-range
// index.
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
// (bands, resident arrays, heaps) is NOT synchronized — it assumes a single
// caller thread, exactly like the hierarchy that owns it. The shared
// backend may be internally concurrent (the sharded engine takes its own
// per-shard locks), but the Partitioner never relies on that: all
// happens-before edges between partition bookkeeping and backend state
// come from the single caller's program order. See DESIGN.md §13.
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

// absent marks an issued ID that is not resident. Resident IDs hold their
// heap position (>= 0), or 0 in a virtual-domain partition.
const absent int32 = -1

// wake is one wall partition's heap entry: a resident's send_time and its
// band offset (id - lo), which names its slot.
type wake struct {
	t   clock.Time
	off uint32
}

// Partition is one logical PIEO: a band of the shared backend's ID space
// plus the bookkeeping that makes it behave like a private list — a
// resident set (for Contains and conservation) and, for wall-clock
// partitions, a min-heap of resident send_times so MinSendTime is exact
// per range.
type Partition struct {
	lo, hi uint32 // the band, inclusive

	// region is the partition's rank region, already shifted into the top
	// bits. It is a locality hint only — the band filter alone decides what
	// a ranged dequeue may return — so partitions may share one:
	// allocations 2^16 apart do.
	region uint64

	// wall marks a wall-clock partition, the only kind with a heap: a
	// virtual-time partition has no meaningful wall wake instant.
	wall bool

	// heap is a binary min-heap by send_time over the wall partition's
	// residents; heap[0] is the partition's MinSendTime.
	heap []wake

	// slots[id-lo] is the residency of every ID NextID has handed out. It
	// grows with those IDs, never with the band: a band may be 2^31 IDs
	// wide and all but unused.
	slots []int32
}

// Lo returns the band's first ID.
func (p *Partition) Lo() uint32 { return p.lo }

// Hi returns the band's last ID.
func (p *Partition) Hi() uint32 { return p.hi }

// Len returns the number of resident elements, by counting: nothing on
// the packet path asks.
func (p *Partition) Len() int {
	n := 0
	for _, h := range p.slots {
		if h != absent {
			n++
		}
	}
	return n
}

// Cap returns the band width — the number of IDs the partition can name.
func (p *Partition) Cap() int { return int(p.width()) }

func (p *Partition) width() uint64 { return uint64(p.hi) - uint64(p.lo) + 1 }

// Wall reports whether the partition keeps a wall-clock send_time heap.
func (p *Partition) Wall() bool { return p.wall }

// InBand reports whether id falls inside the partition's band.
func (p *Partition) InBand(id uint32) bool { return id >= p.lo && id <= p.hi }

// issued reports whether NextID has handed out id. An id below the band
// wraps to a huge offset and fails the comparison too.
func (p *Partition) issued(id uint32) bool { return uint64(id-p.lo) < uint64(len(p.slots)) }

// Contains reports whether id is resident in this partition.
func (p *Partition) Contains(id uint32) bool { return p.issued(id) && p.slots[id-p.lo] != absent }

// NextID hands out the next unused ID in the band; ok is false when the
// band is full.
func (p *Partition) NextID() (uint32, bool) {
	used := uint64(len(p.slots))
	if used >= p.width() {
		return 0, false
	}
	p.slots = append(p.slots, absent)
	return p.lo + uint32(used), true
}

// MinSendTime returns the exact smallest send_time among resident
// elements of a wall partition; ok is false when the partition is empty
// or virtual-domain.
func (p *Partition) MinSendTime() (clock.Time, bool) {
	if len(p.heap) == 0 {
		return 0, false
	}
	return p.heap[0].t, true
}

// track records a resident element in the partition's indexes.
func (p *Partition) track(id uint32, sendTime clock.Time) {
	off := id - p.lo
	if !p.wall {
		p.slots[off] = 0
		return
	}
	p.heap = append(p.heap, wake{sendTime, off})
	p.up(len(p.heap) - 1)
}

// untrack removes a resident element from the partition's indexes. The
// last heap entry fills the hole and sifts whichever way restores order.
func (p *Partition) untrack(id uint32) {
	if !p.Contains(id) {
		panic(fmt.Sprintf("hier: partition [%d,%d] untracking non-resident id %d", p.lo, p.hi, id))
	}
	off := id - p.lo
	if p.wall {
		i, last := int(p.slots[off]), len(p.heap)-1
		moved := p.heap[last]
		p.heap = p.heap[:last]
		if i < last {
			p.heap[i] = moved
			if !p.down(i) {
				p.up(i)
			}
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

// Partitions returns the partitions in band order (a copy).
func (pt *Partitioner) Partitions() []*Partition {
	return append([]*Partition(nil), pt.parts...)
}

// Alloc creates a partition whose band names exactly capacity IDs. wall
// selects the per-range send_time heap. Regions are handed out
// round-robin.
func (pt *Partitioner) Alloc(capacity int, wall bool) (*Partition, error) {
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
		wall:   wall,
	}
	pt.next += uint64(capacity)
	pt.parts = append(pt.parts, p)
	return p, nil
}

// Enqueue inserts e into the partition's logical PIEO. The entry's ID
// must be one NextID handed out, must not already be resident, and its
// rank must fit in rankBits bits.
func (pt *Partitioner) Enqueue(p *Partition, e core.Entry) error {
	if !p.issued(e.ID) {
		return fmt.Errorf("hier: id %d is not one partition band [%d,%d] handed out", e.ID, p.lo, p.hi)
	}
	if p.slots[e.ID-p.lo] != absent {
		return fmt.Errorf("%w: id %d already resident in partition", core.ErrDuplicate, e.ID)
	}
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
// shared structure — and masks the region off its rank. It panics when
// the backend leaks an element from outside the band or one the partition
// never admitted: that is corruption, not an operational fault.
func (pt *Partitioner) Dequeue(p *Partition, t clock.Time) (core.Entry, bool) {
	e, ok := pt.be.DequeueRange(t, p.lo, p.hi)
	if !ok {
		return core.Entry{}, false
	}
	if !p.InBand(e.ID) {
		panic(fmt.Sprintf("hier: ranged dequeue [%d,%d] leaked id %d", p.lo, p.hi, e.ID))
	}
	p.untrack(e.ID)
	e.Rank &= rankMask
	return e, true
}

// CheckInvariants validates every partition against the shared backend:
// the bands must tile [0, next) in order, every backend-resident element
// must be tracked by exactly the partition whose band covers it (no
// cross-partition leakage) and stored under that partition's rank region,
// and each wall partition's heap must hold exactly its residents'
// send_times, in heap order, at the positions their slots record.
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
		if !p.Contains(e.ID) {
			return fmt.Errorf("hier: backend element id %d not tracked by its partition [%d,%d]", e.ID, p.lo, p.hi)
		}
		if e.Rank&^rankMask != p.region {
			return fmt.Errorf("hier: partition [%d,%d] region %#x holds id %d under stored rank %#x",
				p.lo, p.hi, p.region>>rankBits, e.ID, e.Rank)
		}
		if p.wall {
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
		}
		held[i]++
	}
	total := 0
	for i, p := range pt.parts {
		tracked := p.Len()
		if held[i] != tracked {
			return fmt.Errorf("hier: partition [%d,%d] tracks %d residents, backend holds %d",
				p.lo, p.hi, tracked, held[i])
		}
		if p.wall && len(p.heap) != tracked {
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
		if uint64(len(p.slots)) > p.width() {
			return fmt.Errorf("hier: partition [%d,%d] issued %d ids, more than its band", p.lo, p.hi, len(p.slots))
		}
		total += tracked
	}
	if got := pt.be.Len(); got != total {
		return fmt.Errorf("hier: partitions track %d residents, backend holds %d", total, got)
	}
	return nil
}
