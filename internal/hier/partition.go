// Logical PIEO partitioning (§4.2): many logical schedulers multiplexed
// onto ONE physical PIEO. Each logical scheduler owns a contiguous band
// of the 32-bit element-ID space, and extracting from it is a ranged
// dequeue whose predicate is the paper's
// (eligible) && (band.lo <= f.index <= band.hi) — on the sharded engine
// that compiles down to per-shard DequeueRangeBelowSeq calls under the
// ranged tournament, on core.List to a select over the pointer array's
// cached send_times and resident-ID bounds.
//
// The Partitioner is the allocator for those bands: a first-fit free-span
// allocator over [0, 2^32) that hands each logical scheduler a
// power-of-two-headroom band, grows it in place when the adjacent span is
// still free (relocating otherwise), splits it at the midpoint, and
// retires it back into the free list. Per partition it layers a small
// timing wheel (DESIGN.md §11) over the band as the per-range eligibility
// summary: the shared backend's MinSendTime mixes every tenant's time
// domain, so per-range wake-ups must come from a per-range index.
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
// (bands, handle maps, wheels) is NOT synchronized — it assumes a single
// caller thread, exactly like the hierarchy that owns it. The shared
// backend may be internally concurrent (the sharded engine takes its own
// per-shard locks), but the Partitioner never relies on that: all
// happens-before edges between partition bookkeeping and backend state
// come from the single caller's program order. See DESIGN.md §13.
package hier

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/timewheel"
)

// rankBits is the width of the policy rank a partition accepts; the top
// 64-rankBits bits of the stored rank hold the partition's region. 2^48 ns
// is 78 hours of wall or virtual time.
const (
	rankBits = 48
	rankMask = 1<<rankBits - 1
	regions  = 1 << (64 - rankBits)
)

// ErrRankOverflow is returned (wrapped) by Partitioner.Enqueue and
// UpdateRank for a rank that does not fit in rankBits bits. The element is
// refused, never stored under a truncated rank: that would reorder it.
var ErrRankOverflow = errors.New("hier: rank exceeds the partition rank width")

// span is an inclusive ID range [lo, hi].
type span struct{ lo, hi uint32 }

func (s span) size() uint64 { return uint64(s.hi) - uint64(s.lo) + 1 }

// Partition is one logical PIEO: a band of the shared backend's ID space
// plus the bookkeeping that makes it behave like a private list — a
// resident set (for Contains and conservation) and, for wall-clock
// partitions, a timing wheel indexing resident send_times so
// MinSendTime/NextWakeAfter are exact per range.
type Partition struct {
	pt   *Partitioner
	band span
	used uint32 // IDs handed out by NextID, from band.lo upward

	// region is the partition's rank region, already shifted into the top
	// bits. It is a locality hint only — the band filter alone decides what
	// a ranged dequeue may return — so partitions may share one: Split
	// halves do, and so do allocations 2^16 apart.
	region uint64

	// wall marks a partition whose send_times live in the wall-clock
	// domain; only those maintain the eligibility wheel (virtual-time
	// partitions have no meaningful wall wake instant).
	wall    bool
	wheel   *timewheel.Wheel
	handles map[uint32]int32 // resident ID -> wheel handle (wall) or -1

	retired bool
}

// Lo returns the band's first ID.
func (p *Partition) Lo() uint32 { return p.band.lo }

// Hi returns the band's last ID.
func (p *Partition) Hi() uint32 { return p.band.hi }

// Len returns the number of resident elements.
func (p *Partition) Len() int { return len(p.handles) }

// Cap returns the band width — the number of IDs the partition can name.
func (p *Partition) Cap() int { return int(p.band.size()) }

// Wall reports whether the partition maintains a wall-clock wheel.
func (p *Partition) Wall() bool { return p.wall }

// Contains reports whether id is resident in this partition.
func (p *Partition) Contains(id uint32) bool {
	_, ok := p.handles[id]
	return ok
}

// InBand reports whether id falls inside the partition's band.
func (p *Partition) InBand(id uint32) bool { return id >= p.band.lo && id <= p.band.hi }

// NextID hands out the next unused ID in the band; ok is false when the
// band is full (the caller should Grow or Split first).
func (p *Partition) NextID() (uint32, bool) {
	if uint64(p.used) >= p.band.size() {
		return 0, false
	}
	id := p.band.lo + p.used
	p.used++
	return id, true
}

// MinSendTime returns the exact smallest send_time among resident
// elements of a wall partition; ok is false when the partition is empty
// or virtual-domain.
func (p *Partition) MinSendTime() (clock.Time, bool) {
	if p.wheel == nil {
		return 0, false
	}
	return p.wheel.MinSendTime()
}

// NextWakeAfter returns the exact smallest resident send_time strictly
// after now (clock.Never when none), for wall partitions.
func (p *Partition) NextWakeAfter(now clock.Time) clock.Time {
	if p.wheel == nil {
		return clock.Never
	}
	return p.wheel.NextWakeAfter(now)
}

func (p *Partition) mustLive(op string) {
	if p.retired {
		panic(fmt.Sprintf("hier: %s on retired partition [%d,%d]", op, p.band.lo, p.band.hi))
	}
}

// track records a resident element in the partition's indexes.
func (p *Partition) track(id uint32, sendTime clock.Time) {
	h := int32(-1)
	if p.wheel != nil {
		h = p.wheel.Insert(sendTime)
	}
	p.handles[id] = h
}

// untrack removes a resident element from the partition's indexes.
func (p *Partition) untrack(id uint32) {
	h, ok := p.handles[id]
	if !ok {
		panic(fmt.Sprintf("hier: partition [%d,%d] untracking non-resident id %d", p.band.lo, p.band.hi, id))
	}
	if p.wheel != nil {
		p.wheel.Remove(h)
	}
	delete(p.handles, id)
}

// newWheel sizes a per-partition wheel to the band: small bands get the
// 64-slot floor (~1 KiB), large ones grow toward the backend default so
// a 10k-leaf node still indexes mostly in-window. The node arena is
// pre-sized for at most a window's worth of residents and grows on
// demand past that: a band may be 2^31 IDs wide and all but empty.
func newWheel(capacity int) *timewheel.Wheel {
	slots := 64
	for slots < capacity && slots < 4096 {
		slots <<= 1
	}
	return timewheel.New(timewheel.Config{Slots: slots, Hint: min(capacity, slots)})
}

// Partitioner owns one shared physical backend and carves its ID space
// into per-logical-scheduler bands.
type Partitioner struct {
	be         backend.Backend
	parts      []*Partition // live partitions, sorted by band.lo
	free       []span       // free spans, sorted, coalesced
	nextRegion uint64       // regions are handed out round-robin by Alloc
}

// NewPartitioner wraps a shared backend the caller constructed (and must
// use exclusively through the returned Partitioner).
func NewPartitioner(be backend.Backend) *Partitioner {
	return &Partitioner{
		be:   be,
		free: []span{{0, math.MaxUint32}},
	}
}

// Backend exposes the shared physical backend for stats and tests.
func (pt *Partitioner) Backend() backend.Backend { return pt.be }

// Partitions returns the live partitions in band order (a copy).
func (pt *Partitioner) Partitions() []*Partition {
	out := make([]*Partition, len(pt.parts))
	copy(out, pt.parts)
	return out
}

// ceilPow2 rounds n up to a power of two (min 1).
func ceilPow2(n uint64) uint64 {
	if n <= 1 {
		return 1
	}
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// insertPart keeps pt.parts sorted by band.lo.
func (pt *Partitioner) insertPart(p *Partition) {
	i := sort.Search(len(pt.parts), func(i int) bool { return pt.parts[i].band.lo > p.band.lo })
	pt.parts = append(pt.parts, nil)
	copy(pt.parts[i+1:], pt.parts[i:])
	pt.parts[i] = p
}

func (pt *Partitioner) removePart(p *Partition) {
	for i, q := range pt.parts {
		if q == p {
			pt.parts = append(pt.parts[:i], pt.parts[i+1:]...)
			return
		}
	}
	panic("hier: partition not found in allocator")
}

// carve takes width IDs out of a free span by first fit and returns the
// allocated span.
func (pt *Partitioner) carve(width uint64) (span, error) {
	for i, f := range pt.free {
		if f.size() < width {
			continue
		}
		got := span{f.lo, f.lo + uint32(width-1)}
		if f.size() == width {
			pt.free = append(pt.free[:i], pt.free[i+1:]...)
		} else {
			pt.free[i].lo = got.hi + 1
		}
		return got, nil
	}
	return span{}, fmt.Errorf("hier: no free span of %d ids", width)
}

// release returns a span to the free list, coalescing neighbors.
func (pt *Partitioner) release(s span) {
	i := sort.Search(len(pt.free), func(i int) bool { return pt.free[i].lo > s.lo })
	pt.free = append(pt.free, span{})
	copy(pt.free[i+1:], pt.free[i:])
	pt.free[i] = s
	// Coalesce with the right neighbor, then the left.
	if i+1 < len(pt.free) && pt.free[i].hi != math.MaxUint32 && pt.free[i].hi+1 == pt.free[i+1].lo {
		pt.free[i].hi = pt.free[i+1].hi
		pt.free = append(pt.free[:i+1], pt.free[i+2:]...)
	}
	if i > 0 && pt.free[i-1].hi != math.MaxUint32 && pt.free[i-1].hi+1 == pt.free[i].lo {
		pt.free[i-1].hi = pt.free[i].hi
		pt.free = append(pt.free[:i], pt.free[i+1:]...)
	}
}

// Alloc creates a partition sized for capacity elements, with
// power-of-two headroom so modest growth needs no relocation. wall
// selects the per-range eligibility wheel.
func (pt *Partitioner) Alloc(capacity int, wall bool) (*Partition, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("hier: partition capacity must be positive, got %d", capacity)
	}
	width := ceilPow2(uint64(capacity))
	band, err := pt.carve(width)
	if err != nil {
		return nil, err
	}
	p := &Partition{
		pt:      pt,
		band:    band,
		region:  (pt.nextRegion % regions) << rankBits,
		wall:    wall,
		handles: make(map[uint32]int32),
	}
	pt.nextRegion++
	if wall {
		p.wheel = newWheel(capacity)
	}
	pt.insertPart(p)
	return p, nil
}

// checkRank refuses a rank that would spill into the region bits.
func checkRank(id uint32, rank uint64) error {
	if rank > rankMask {
		return fmt.Errorf("%w: id %d rank %d needs more than %d bits", ErrRankOverflow, id, rank, rankBits)
	}
	return nil
}

// leave turns a stored entry of p back into the caller's: the band is
// verified (an element from outside it is corruption, not an operational
// fault) and the region masked off the rank.
func (p *Partition) leave(op string, e core.Entry) core.Entry {
	if !p.InBand(e.ID) {
		panic(fmt.Sprintf("hier: %s [%d,%d] leaked id %d", op, p.band.lo, p.band.hi, e.ID))
	}
	p.untrack(e.ID)
	e.Rank &= rankMask
	return e
}

// Enqueue inserts e into the partition's logical PIEO. The entry's ID
// must fall inside the band and must not already be resident.
func (pt *Partitioner) Enqueue(p *Partition, e core.Entry) error {
	p.mustLive("Enqueue")
	if !p.InBand(e.ID) {
		return fmt.Errorf("hier: id %d outside partition band [%d,%d]", e.ID, p.band.lo, p.band.hi)
	}
	if p.Contains(e.ID) {
		return fmt.Errorf("%w: id %d already resident in partition", core.ErrDuplicate, e.ID)
	}
	if err := checkRank(e.ID, e.Rank); err != nil {
		return err
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
// shared structure. It panics when the backend leaks an element from
// outside the band or one the partition never admitted: that is
// corruption, not an operational fault.
func (pt *Partitioner) Dequeue(p *Partition, t clock.Time) (core.Entry, bool) {
	p.mustLive("Dequeue")
	e, ok := pt.be.DequeueRange(t, p.band.lo, p.band.hi)
	if !ok {
		return core.Entry{}, false
	}
	return p.leave("ranged dequeue", e), true
}

// DequeueID point-extracts a resident element by ID.
func (pt *Partitioner) DequeueID(p *Partition, id uint32) (core.Entry, bool) {
	p.mustLive("DequeueID")
	if !p.Contains(id) {
		return core.Entry{}, false
	}
	e, ok := pt.be.DequeueFlow(id)
	if !ok {
		panic(fmt.Sprintf("hier: partition [%d,%d] tracks id %d but backend has no such element", p.band.lo, p.band.hi, id))
	}
	return p.leave("point dequeue", e), true
}

// UpdateRank rewrites a resident element's rank and send_time in place,
// keeping the wheel summary exact. It reports whether id was resident; a
// rank wider than rankBits is refused with ErrRankOverflow.
func (pt *Partitioner) UpdateRank(p *Partition, id uint32, rank uint64, sendTime clock.Time) (bool, error) {
	p.mustLive("UpdateRank")
	if !p.Contains(id) {
		return false, nil
	}
	if err := checkRank(id, rank); err != nil {
		return false, err // the element keeps its old rank and send_time
	}
	ok, err := backend.UpdateRank(pt.be, id, rank|p.region, sendTime)
	if err != nil {
		// The fallback path (dequeue+enqueue) can fail mid-flight and
		// drop the element from the backend; resync our view.
		if !pt.be.Contains(id) {
			p.untrack(id)
		}
		return false, err
	}
	if !ok {
		panic(fmt.Sprintf("hier: partition [%d,%d] tracks id %d but backend UpdateRank missed", p.band.lo, p.band.hi, id))
	}
	if p.wheel != nil {
		p.wheel.Update(p.handles[id], sendTime)
	}
	return true, nil
}

// Grow widens the partition to hold at least capacity IDs. When the span
// adjacent to the band's top is free the band extends in place and remap
// is nil. Otherwise the partition relocates to a fresh band: every
// resident element is extracted in dequeue order (rank order, FIFO ties)
// and re-admitted at the same offset in the new band, which preserves
// relative FIFO order among equal ranks — the only order the seq
// tie-break can observe. The partition keeps its rank region, so the
// residents land where they were in the global rank order. remap then
// maps old ID -> new ID, and the caller must rewrite its own references.
func (pt *Partitioner) Grow(p *Partition, capacity int) (remap map[uint32]uint32, err error) {
	p.mustLive("Grow")
	width := ceilPow2(uint64(capacity))
	if width <= p.band.size() {
		return nil, nil // already wide enough
	}
	// In-place: the span [hi+1, lo+width-1] must be entirely free.
	if extra := width - p.band.size(); p.band.hi != math.MaxUint32 {
		wantLo := p.band.hi + 1
		if uint64(p.band.lo)+width-1 <= math.MaxUint32 {
			for i, f := range pt.free {
				if f.lo != wantLo || f.size() < extra {
					continue
				}
				if f.size() == extra {
					pt.free = append(pt.free[:i], pt.free[i+1:]...)
				} else {
					pt.free[i].lo = f.lo + uint32(extra)
				}
				p.band.hi = p.band.lo + uint32(width-1)
				return nil, nil
			}
		}
	}
	// Relocate: carve the new band first so failure leaves p intact.
	newBand, err := pt.carve(width)
	if err != nil {
		return nil, err
	}
	remap = make(map[uint32]uint32, len(p.handles))
	// Extract every resident in dequeue order. clock.Never makes every
	// send_time eligible, so this drains unconditionally.
	moved := make([]core.Entry, 0, len(p.handles))
	for {
		e, ok := pt.be.DequeueRange(clock.Never, p.band.lo, p.band.hi)
		if !ok {
			break
		}
		moved = append(moved, p.leave("ranged drain", e))
	}
	if len(p.handles) != 0 {
		panic(fmt.Sprintf("hier: partition [%d,%d] retained %d residents after drain", p.band.lo, p.band.hi, len(p.handles)))
	}
	oldBand := p.band
	p.band = newBand
	pt.removePart(p)
	pt.insertPart(p)
	pt.release(oldBand)
	for _, e := range moved {
		newID := newBand.lo + (e.ID - oldBand.lo)
		remap[e.ID] = newID
		e.ID = newID
		e.Rank |= p.region
		if err := pt.be.Enqueue(e); err != nil {
			panic(fmt.Sprintf("hier: relocation re-admit id %d: %v", newID, err))
		}
		p.track(newID, e.SendTime)
	}
	return remap, nil
}

// Split halves the partition's band: p keeps the lower half and the
// returned partition owns the upper half, inheriting any residents whose
// IDs fall there. No backend traffic: bands stay disjoint, elements stay
// physically in place — which is why both halves share p's rank region —
// and only the per-range bookkeeping migrates.
func (pt *Partitioner) Split(p *Partition) (*Partition, error) {
	p.mustLive("Split")
	if p.band.size() < 2 {
		return nil, fmt.Errorf("hier: partition [%d,%d] too narrow to split", p.band.lo, p.band.hi)
	}
	half := p.band.size() / 2
	mid := p.band.lo + uint32(half)
	q := &Partition{
		pt:      pt,
		band:    span{mid, p.band.hi},
		region:  p.region, // inherited residents are stored under it
		wall:    p.wall,
		handles: make(map[uint32]int32),
	}
	if p.wall {
		q.wheel = newWheel(int(p.band.size() - half))
	}
	for id, h := range p.handles {
		if id < mid {
			continue
		}
		t := clock.Time(0)
		if p.wheel != nil {
			t = p.wheel.TimeOf(h)
		}
		p.untrack(id)
		q.track(id, t)
	}
	p.band.hi = mid - 1
	if used := uint64(p.used); used > half {
		q.used = uint32(used - half)
		p.used = uint32(half)
	}
	pt.insertPart(q)
	return q, nil
}

// Retire drains every resident element out of the shared backend and
// returns the band to the free list. The partition is dead afterwards.
func (pt *Partitioner) Retire(p *Partition) {
	p.mustLive("Retire")
	for id := range p.handles {
		if _, ok := pt.be.DequeueFlow(id); !ok {
			panic(fmt.Sprintf("hier: retire: partition [%d,%d] tracks id %d but backend has no such element", p.band.lo, p.band.hi, id))
		}
		p.untrack(id)
	}
	pt.removePart(p)
	pt.release(p.band)
	p.retired = true
	p.wheel = nil
}

// CheckInvariants validates the allocator and every partition against
// the shared backend: bands and free spans must tile [0, 2^32) without
// overlap, every backend-resident element must be tracked by exactly the
// partition whose band covers it (no cross-partition leakage) and stored
// under that partition's rank region, and each wall partition's wheel
// must index exactly its residents' send_times.
func (pt *Partitioner) CheckInvariants() error {
	// Tiling: merge partitions and free spans, sorted; they must be
	// disjoint and cover the whole space.
	type tagged struct {
		s    span
		free bool
	}
	all := make([]tagged, 0, len(pt.parts)+len(pt.free))
	for _, p := range pt.parts {
		all = append(all, tagged{p.band, false})
	}
	for _, f := range pt.free {
		all = append(all, tagged{f, true})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s.lo < all[j].s.lo })
	next := uint64(0)
	for _, t := range all {
		if uint64(t.s.lo) != next {
			return fmt.Errorf("hier: id space gap/overlap at %d (span [%d,%d] free=%v)", next, t.s.lo, t.s.hi, t.free)
		}
		if t.s.hi < t.s.lo {
			return fmt.Errorf("hier: inverted span [%d,%d]", t.s.lo, t.s.hi)
		}
		next = uint64(t.s.hi) + 1
	}
	if next != 1<<32 {
		return fmt.Errorf("hier: id space ends at %d, want 2^32", next)
	}
	for i := 1; i < len(pt.free); i++ {
		if pt.free[i-1].hi != math.MaxUint32 && pt.free[i-1].hi+1 == pt.free[i].lo {
			return fmt.Errorf("hier: uncoalesced free spans [%d,%d] [%d,%d]",
				pt.free[i-1].lo, pt.free[i-1].hi, pt.free[i].lo, pt.free[i].hi)
		}
	}
	// Residency: bucket the backend's snapshot by band.
	perPart := make(map[*Partition]int)
	for _, e := range pt.be.Snapshot() {
		i := sort.Search(len(pt.parts), func(i int) bool { return pt.parts[i].band.hi >= e.ID })
		if i == len(pt.parts) || !pt.parts[i].InBand(e.ID) {
			return fmt.Errorf("hier: backend element id %d outside every partition band", e.ID)
		}
		p := pt.parts[i]
		h, tracked := p.handles[e.ID]
		if !tracked {
			return fmt.Errorf("hier: backend element id %d not tracked by its partition [%d,%d]", e.ID, p.band.lo, p.band.hi)
		}
		if e.Rank&^rankMask != p.region {
			return fmt.Errorf("hier: partition [%d,%d] region %#x holds id %d under stored rank %#x",
				p.band.lo, p.band.hi, p.region>>rankBits, e.ID, e.Rank)
		}
		if p.wheel != nil {
			if got := p.wheel.TimeOf(h); got != e.SendTime {
				return fmt.Errorf("hier: partition [%d,%d] wheel has t=%d for id %d, backend says %d",
					p.band.lo, p.band.hi, got, e.ID, e.SendTime)
			}
		}
		perPart[p]++
	}
	total := 0
	for _, p := range pt.parts {
		if got := perPart[p]; got != len(p.handles) {
			return fmt.Errorf("hier: partition [%d,%d] tracks %d residents, backend holds %d",
				p.band.lo, p.band.hi, len(p.handles), got)
		}
		if p.wheel != nil {
			if p.wheel.Len() != len(p.handles) {
				return fmt.Errorf("hier: partition [%d,%d] wheel indexes %d, tracks %d",
					p.band.lo, p.band.hi, p.wheel.Len(), len(p.handles))
			}
			if err := p.wheel.CheckInvariants(); err != nil {
				return fmt.Errorf("hier: partition [%d,%d]: %w", p.band.lo, p.band.hi, err)
			}
		}
		if uint64(p.used) > p.band.size() {
			return fmt.Errorf("hier: partition [%d,%d] used %d exceeds band", p.band.lo, p.band.hi, p.used)
		}
		total += len(p.handles)
	}
	if got := pt.be.Len(); got != total {
		return fmt.Errorf("hier: partitions track %d residents, backend holds %d", total, got)
	}
	return nil
}
