// Package core implements the PIEO (Push-In-Extract-Out) ordered list —
// the paper's primary contribution (§3.1) — using a functional model of
// the exact hardware design of §5:
//
//   - The list is stored as an array of sublists of size S = ⌈√N⌉. Each
//     sublist keeps its elements ordered twice: by rank (Rank-Sublist)
//     and by send_time (Eligibility-Sublist).
//   - A pointer array (Ordered-Sublist-Array) orders the sublists by
//     their smallest rank and caches each sublist's smallest rank,
//     smallest send_time, and occupancy. Its left partition points to
//     non-empty sublists, its right partition to empty ones.
//   - Invariant 1: no two consecutive partially-full sublists, so N
//     elements never need more than ~2√N sublists (2× SRAM overhead) and
//     every operation touches at most two sublists.
//
// All three primitive operations — Enqueue (Push-In), Dequeue
// (Extract-Out of the smallest-ranked eligible element), and DequeueFlow
// (extract a specific element) — complete in a constant four hardware
// clock cycles. Stats counts cycles, sublist reads/writes (SRAM port
// usage) and sublist comparator activations; internal/hwsim, the
// structural datapath the tools walk, is held to the first three op by op.
//
// The hardware evaluates its O(√N) comparators in parallel, so a
// software model that emulates them with sequential scans pays O(√N)
// per operation where the hardware pays one cycle. The software datapath
// therefore takes three shortcuts that change no observable behavior
// (DESIGN.md §7):
//
//   - Position searches run as binary searches: the pointer array's
//     smallest ranks are nondecreasing (sublists partition the global
//     rank order) and each Rank-/Eligibility-Sublist is sorted, so every
//     parallel-compare + priority-encode step has an O(log) equivalent.
//   - The dequeue-side eligibility select keeps a packed summary word
//     per 32 pointer-array positions (the minimum cached send_time of
//     the block), so finding the first eligible sublist skips
//     32 positions per probe instead of scanning all ~2√N.
//   - Elements sit in one list-wide arena and never move while queued; a
//     sublist's rank order is a window of 32-bit arena handles, so an
//     insert or removal shifts 4-byte handles and an Invariant-1 move
//     carries one handle from window to window, copying no element and
//     leaving the flow index (id -> handle) untouched. An enqueue's
//     in-sublist search starts from a guess interpolated between the
//     sublist's cached smallest rank and the next one's. The windows
//     live in two-ended stores with slack on both sides: head/tail
//     insertions and removals — the common case on both the enqueue
//     split path and the dequeue refill path — shift nothing, interior
//     shifts move whichever side is shorter, and a window that has
//     drifted to an edge of its store is moved back to the middle once
//     per ~S/2 operations (see sublist).
//
// Stats still counts the work the HARDWARE would do — every lane of a
// sublist compare, four cycles per op — not the software's shortcut, so
// the counts are unaffected by software optimization (see Stats).
//
// Eligibility predicates follow §5.2: each element carries a send_time
// and is eligible when curr_time >= send_time, where curr_time is any
// monotonic function of time supplied by the caller at dequeue.
// clock.Always (0) encodes predicate-true, clock.Never encodes
// predicate-false. Ties in rank dequeue in enqueue (FIFO) order (§3.1).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"pieo/internal/clock"
	"pieo/internal/idtab"
)

// Entry is one element of the ordered list: a flow (or packet) identifier
// with its programmable rank and eligibility time. The paper's prototype
// uses 16-bit rank and send_time fields; this model widens them to 64
// bits so virtual-time algorithms never wrap, and leaves bit widths to
// internal/hwsim's Shape.
type Entry struct {
	ID       uint32
	Rank     uint64
	SendTime clock.Time
}

// Eligible reports whether the entry's predicate holds at time now.
func (e Entry) Eligible(now clock.Time) bool { return now >= e.SendTime }

// String renders the entry like the paper's figures: [id, rank, send].
func (e Entry) String() string {
	return fmt.Sprintf("[%d, %d, %s]", e.ID, e.Rank, e.SendTime)
}

// Operation errors.
var (
	// ErrFull is returned by Enqueue when the list is at capacity.
	ErrFull = errors.New("pieo: list full")
	// ErrDuplicate is returned by Enqueue when the ID is already queued;
	// a flow appears at most once in the scheduler's ordered list (§3.2).
	ErrDuplicate = errors.New("pieo: id already enqueued")
	// ErrUnknownFlow is recorded by scheduler layers when an ordered list
	// yields an ID with no registered flow state — a wiring fault between
	// the list and the flow table.
	ErrUnknownFlow = errors.New("pieo: unknown flow")
)

// Stats counts the work performed by the list, in hardware terms.
// Cycles follows the §5.2 datapath: four cycles per primitive operation.
// A range dequeue (§4.3) reads only sublists whose cached smallest
// send_time and resident-ID bounds both pass; the bounds are conservative,
// so a read can still find nothing in range and eligible, and each such
// read costs one more cycle and one more SRAM read.
//
// The counters describe the HARDWARE datapath, not the software model: a
// sublist compare charges every lane even where the software
// binary-searches, and batch operations (EnqueueBatch, DequeueUpTo)
// charge exactly what the same operations issued one at a time would.
type Stats struct {
	Enqueues      uint64
	Dequeues      uint64 // successful Dequeue()
	EmptyDequeues uint64 // Dequeue() that found no eligible element
	FlowDequeues  uint64 // successful DequeueFlow()
	RangeDequeues uint64 // successful DequeueRange()

	Cycles        uint64
	SublistReads  uint64 // sublists fetched from SRAM
	SublistWrites uint64 // sublists written back to SRAM
	ElemCompares  uint64 // sublist comparator activations
}

// element is an Entry as the arena stores it. It carries no sequence
// number: as in the hardware, equal ranks leave in FIFO order because an
// arrival is placed after every element of its rank and Invariant-1
// moves never reorder what they carry (see upperBound).
//
// The fields are Entry's, laid out for the cache rather than for the API,
// and the 4-byte id leaves 4 bytes of padding that name the sublist whose
// window holds the element (for a free arena slot, the next free handle),
// so an element is 24 bytes. An element is written once, when it is
// enqueued, and stays in its arena slot until it leaves the list.
type element struct {
	rank     uint64
	sendTime clock.Time
	id       uint32
	sub      uint32 // sublist id holding the handle; next free handle while free
}

func newElement(e Entry) element {
	return element{rank: e.Rank, sendTime: e.SendTime, id: e.ID}
}

func (a *element) entry() Entry {
	return Entry{ID: a.id, Rank: a.rank, SendTime: a.sendTime}
}

// less compares ranks only; FIFO among equals is positional.
func (a *element) less(b *element) bool { return a.rank < b.rank }

// noHandle ends the arena's free chain.
const noHandle = math.MaxUint32

// arena holds every element, by handle, in chunks of chunkLen slots, so
// that growth appends a chunk and copies no element: a handle is its
// chunk (the high bits) and its slot in the chunk (the low chunkShift).
// Every chunk but the last is full, so the handles in use are [0, n) for
// n slots; at list_hold's 2^18 residents the chunk table is 64 entries.
type arena [][]element

const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// at returns the element at handle h.
func (a arena) at(h uint32) *element { return &a[h>>chunkShift][h&chunkMask] }

// first returns the first index of hs whose element is eligible at now
// with an ID in [lo, hi], or -1: findInRange's sublist scan, kept out of
// line because inlined into findInRange it spills to the stack per element.
//
//go:noinline
func (a arena) first(hs []uint32, now clock.Time, lo, hi uint32) int {
	for i, h := range hs {
		if e := a.at(h); e.sendTime <= now && e.id >= lo && e.id <= hi {
			return i
		}
	}
	return -1
}

// sublist is one SRAM-resident sublist: the rank order of its elements
// as a window of arena handles, and a parallel multiset of send_times
// ordered ascending (the Eligibility-Sublist). The elements themselves
// live in the list's arena, so an interior insert or removal shifts
// 4-byte handles where the hardware re-orders the row in one cycle, and
// an Invariant-1 move takes a handle out of one window and puts it into
// its neighbour's.
//
// The two orders live in two-ended backing stores of capacity 2·(S+1)
// with the live window floating between slack at either end (hs =
// hbuf[hstart : hstart+n]). Removing the head or tail — what every
// dequeue and every Invariant-1 refill does — just moves the window
// edge; interior insertions and removals shift whichever side is
// shorter.
//
// The window drifts: head removals and tail insertions (a sublist being
// drained from the front and refilled at the back, the hold model's
// pattern) walk it towards the right edge of its store, the mirror
// pattern towards the left. When an insertion wants to shift a side that
// has run out of slack, the window is moved back to the middle of the
// store first. That costs one move per entry, at most S+1, and leaves
// at least (S+1)/2 free places on either side; each operation moves an
// edge by at most one place, so at least (S+1)/2 operations on this
// sublist pass before it can touch an edge again — two to three moves
// per operation, amortised, whatever the traffic.
type sublist struct {
	hs   []uint32     // rank-ordered window into hbuf: arena handles
	elig []clock.Time // ascending send_time window into tbuf

	hbuf   []uint32
	tbuf   []clock.Time
	hstart int // hs window offset within hbuf
	tstart int // elig window offset within tbuf
}

func (s *sublist) len() int           { return len(s.hs) }
func (s *sublist) full(cap_ int) bool { return len(s.hs) == cap_ }

// bind attaches backing stores and centers the (empty) windows.
func (s *sublist) bind(hbuf []uint32, tbuf []clock.Time) {
	s.hbuf, s.tbuf = hbuf, tbuf
	s.hstart = len(hbuf) / 2
	s.tstart = len(tbuf) / 2
	s.hs = hbuf[s.hstart:s.hstart]
	s.elig = tbuf[s.tstart:s.tstart]
}

// openSlot makes room for one element at index idx of the n-element
// window at buf[start:start+n] and returns the window's new start; the
// caller stores into buf[start+idx]. It shifts whichever side of idx is
// shorter, after moving the window back to the middle of the store if
// that side has no slack left (see sublist).
func openSlot[T any](buf []T, start, n, idx int) int {
	left := idx <= n-idx
	if (left && start == 0) || (!left && start+n == len(buf)) {
		mid := (len(buf) - n) / 2
		copy(buf[mid:mid+n], buf[start:start+n])
		start = mid
	}
	if left {
		copy(buf[start-1:], buf[start:start+idx])
		return start - 1
	}
	copy(buf[start+idx+1:start+n+1], buf[start+idx:start+n])
	return start
}

// closeSlot deletes index idx of the n-element window at
// buf[start:start+n], shifting the shorter side, and returns the
// window's new start. Emptying the window recenters it, so the next fill
// starts with balanced slack.
func closeSlot[T any](buf []T, start, n, idx int) int {
	if n == 1 {
		return len(buf) / 2
	}
	if idx < n-1-idx {
		copy(buf[start+1:start+idx+1], buf[start:start+idx])
		return start + 1
	}
	copy(buf[start+idx:start+n-1], buf[start+idx+1:start+n])
	return start
}

// insertHandleAt places handle h at rank-order index idx.
func (s *sublist) insertHandleAt(idx int, h uint32) {
	n := len(s.hs)
	s.hstart = openSlot(s.hbuf, s.hstart, n, idx)
	s.hbuf[s.hstart+idx] = h
	s.hs = s.hbuf[s.hstart : s.hstart+n+1]
}

// removeHandleAt deletes rank-order index idx.
func (s *sublist) removeHandleAt(idx int) {
	n := len(s.hs)
	s.hstart = closeSlot(s.hbuf, s.hstart, n, idx)
	s.hs = s.hbuf[s.hstart : s.hstart+n-1]
}

// insertElig adds t to the Eligibility-Sublist, after any equal values.
// The ends are checked before searching: at or after the tail covers the
// all-eligible case (every send_time equal) and monotone pacing, before
// the head covers a split handing its tail to the next sublist.
func (s *sublist) insertElig(t clock.Time) {
	elig := s.elig
	n := len(elig)
	idx := n
	if n > 0 && t < elig[n-1] {
		idx = 0
		if t >= elig[0] {
			lo, hi := 1, n-1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if t < elig[mid] {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			idx = lo
		}
	}
	s.tstart = openSlot(s.tbuf, s.tstart, n, idx)
	s.tbuf[s.tstart+idx] = t
	s.elig = s.tbuf[s.tstart : s.tstart+n+1]
}

// removeElig deletes one occurrence of t from the Eligibility-Sublist
// (any slot holding the value serves: the multiset is by value). The
// ends are checked before searching: the tail covers the all-eligible
// case — which then never moves the window, inserts and removals both
// working its right edge — and a split removing the latest release, the
// head covers a paced dequeue removing the earliest.
func (s *sublist) removeElig(t clock.Time) {
	elig := s.elig
	n := len(elig)
	var idx int
	switch {
	case n > 0 && elig[n-1] == t:
		idx = n - 1
	case n > 0 && elig[0] == t:
		idx = 0
	default:
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if elig[mid] < t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == n || elig[lo] != t {
			panic(fmt.Sprintf("pieo: eligibility sublist lost send_time %v", t))
		}
		idx = lo
	}
	s.tstart = closeSlot(s.tbuf, s.tstart, n, idx)
	s.elig = s.tbuf[s.tstart : s.tstart+n-1]
}

// ptr is one Ordered-Sublist-Array entry (§5.2): the sublist's id and
// its cached smallest rank and smallest send_time. The hardware entry
// also caches the occupancy; the software reads it from the sublist
// itself (sublist.len), which every use has at hand.
type ptr struct {
	sublistID        int
	smallestRank     uint64
	smallestSendTime clock.Time
}

// idBounds bounds the IDs resident in one sublist — the pointer-array
// metadata for the second conjunct of the logical-PIEO predicate
// (start <= f.index <= end, §4.3), as ptr.smallestSendTime is for the
// first. The bounds are conservative, not exact: every resident ID lies
// inside them, so a ranged select may skip a sublist whose bounds miss
// [lo, hi], but a removal never narrows them (that would need a rescan).
// They widen on every insert, reset when the sublist empties, and are
// tightened to exact by the ranged scan that reads the whole sublist and
// misses.
//
// In hardware they are two more fields of the Ordered-Sublist-Array
// entry. The software keeps them in an array of their own, indexed by
// sublist id: they then neither lengthen the stride of the eligibility
// scans over order nor ride along when a claim or retire shifts it, so
// lists that are never dequeued by range pay one store per insert.
type idBounds struct{ lo, hi uint32 }

// noIDs is the empty bound: an inverted interval that the first insert
// collapses to a point.
var noIDs = idBounds{lo: math.MaxUint32, hi: 0}

// admit widens the bounds to cover id.
func (b *idBounds) admit(id uint32) {
	if id < b.lo {
		b.lo = id
	}
	if id > b.hi {
		b.hi = id
	}
}

// Packed eligibility summary geometry: one summary word per 32
// pointer-array positions, holding the block's minimum cached
// send_time. 32 keeps the summary array a few cache lines even at the
// 2^19 operating point (~46 words) while bounding the in-block scan.
const (
	eligBlockShift = 5
	eligBlockLen   = 1 << eligBlockShift
	eligBlockMask  = eligBlockLen - 1
)

// List is a PIEO ordered list. Create one with New or NewWithSublistSize.
type List struct {
	capacity    int // a bound, not an allocation: storage grows (see extend)
	sublistSize int
	numSublists int // 2·⌈capacity/sublistSize⌉ + 2, the bound on len(order)

	// The per-sublist arrays hold the ids bound so far, [0, len(order)).
	sublists []sublist // backing storage, indexed by sublist id
	order    []ptr     // Ordered-Sublist-Array; [0:active) non-empty, rest empty
	active   int
	posOf    []int      // sublist id -> position in order
	ids      []idBounds // sublist id -> resident-ID bounds

	// eligBlk[b] is the minimum order[i].smallestSendTime over the active
	// positions i in [b·32, (b+1)·32) — the software's packed stand-in
	// for the hardware's parallel eligibility comparators. It is exact
	// (refreshed on every metadata change), so a block whose word fails
	// the time filter is skipped wholesale and a block whose word passes
	// is guaranteed to contain an eligible sublist. Together with
	// ptr.smallestSendTime and the sorted sublist.elig arrays these words
	// are the list's one time index: MinSendTime, the dequeue-miss verdict
	// and NextWakeAfter are all answered from them (DESIGN.md §11).
	eligBlk []clock.Time

	// arena holds every element, by handle; the free slots are chained
	// through element.sub from free. It grows with the residents' high-water
	// mark, a chunk at a time, and never shrinks.
	arena arena
	free  uint32 // first free handle, noHandle when the chain is empty

	size  int
	flows idtab.Table[idtab.ID, uint32] // flow id -> handle + 1 (per-flow state, §5.2 Dequeue(f))

	stats Stats
}

// maxSublistSize is the largest S: ⌈√N⌉ for the 2^32 residents 32-bit
// IDs allow.
const maxSublistSize = math.MaxUint16

// New creates a PIEO list with capacity n using the paper's geometry:
// sublists of size ⌈√n⌉ (capped at maxSublistSize, which only an n past
// the 32-bit ID space reaches).
func New(n int) *List {
	if n <= 0 {
		panic(fmt.Sprintf("pieo: capacity must be positive, got %d", n))
	}
	return NewWithSublistSize(n, min(int(math.Ceil(math.Sqrt(float64(n)))), maxSublistSize))
}

// NewWithSublistSize creates a PIEO list with an explicit sublist size,
// used by the facade's geometry ablations (pieo.NewListWithSublistSize) and
// the tests' small-sublist lists. The number of sublists is 2·⌈n/s⌉ + 2:
// the paper's 2× Invariant-1 overhead plus two slack sublists so the
// worst-case full/partial alternation can never exhaust the empty partition
// at the capacity boundary. Storage starts at one sublist and grows with
// the residents.
func NewWithSublistSize(n, s int) *List {
	if n <= 0 || s <= 0 || s > maxSublistSize {
		panic(fmt.Sprintf("pieo: invalid geometry n=%d s=%d", n, s))
	}
	l := &List{
		capacity:    n,
		sublistSize: s,
		numSublists: 2*((n+s-1)/s) + 2,
		free:        noHandle,
		flows:       idtab.New[idtab.ID, uint32](0),
	}
	l.extend()
	return l
}

// Storage follows the claim high-water mark, in steps. Claims are LIFO
// from the empty partition, so the sublists that ever hold elements are
// exactly ids [0, high-water mark): a step binds the next contiguous range
// of ids to one set of stores, and neighbouring sublists — which every
// operation pair touches — stay adjacent in memory. A step doubles the
// bound sublists until it would exceed maxStepBytes (and is always at
// least one sublist): an almost-empty list costs one sublist, and growth
// never leaves more than one step unused.
const (
	// One of a sublist's S+1 places: a handle and a send_time in each
	// half of the two-ended stores. The element itself is in the arena.
	slotBytes    = 2 * (4 + 8)
	elemBytes    = 24 // an arena slot; TestElementLayout pins it
	maxStepBytes = 256 << 10
)

// extend binds the next step of sublists: their stores and their entries
// in every per-sublist array, the new ids joining the tail of the empty
// partition. Appending moves those arrays, so no *sublist or *ptr may be
// held across a call (only claimEmptyAt calls it after construction).
// Once the high-water mark is reached the operation path allocates
// nothing.
func (l *List) extend() {
	slots := l.sublistSize + 1
	first := len(l.order)
	k := min(max(first, 1), max(maxStepBytes/(slots*slotBytes), 1), l.numSublists-first)
	if k <= 0 {
		panic("pieo: empty-sublist partition exhausted; Invariant 1 slack miscomputed")
	}
	hbuf := make([]uint32, k*2*slots)
	tbuf := make([]clock.Time, k*2*slots)
	for i := 0; i < k; i++ {
		lo, hi := 2*i*slots, 2*(i+1)*slots
		var sl sublist
		sl.bind(hbuf[lo:hi:hi], tbuf[lo:hi:hi])
		l.sublists = append(l.sublists, sl)
		l.order = append(l.order, ptr{sublistID: first + i, smallestSendTime: clock.Never})
		l.posOf = append(l.posOf, first+i)
		l.ids = append(l.ids, noIDs)
	}
	for len(l.eligBlk)<<eligBlockShift < len(l.order) {
		l.eligBlk = append(l.eligBlk, clock.Never)
	}
}

// growArena chains new slots onto the (empty) free chain. The first
// chunk starts at 64 slots and doubles up to chunkLen, so a small list
// stays small; after it, growth appends a chunk of chunkLen slots, or of
// what is left of the capacity, and copies no element. The unused tail is
// therefore less than one chunk, or half the first. The first chunk's
// doubling copies it, so no *element may be held across a call (only
// enqueue calls it, before it takes any).
func (l *List) growArena() {
	n := l.size          // the free chain is empty: every slot is held
	k := n >> chunkShift // the first chunk, or the next
	if k == len(l.arena) {
		l.arena = append(l.arena, nil)
	}
	c := l.arena[k]
	grown := make([]element, min(max(2*n, 64), chunkLen, len(c)+l.capacity-n))
	copy(grown, c)
	for i := len(c); i < len(grown); i++ {
		grown[i].sub = uint32(k<<chunkShift + i + 1)
	}
	grown[len(grown)-1].sub = noHandle
	l.arena[k], l.free = grown, uint32(n)
}

// Len returns the number of queued elements.
func (l *List) Len() int { return l.size }

// Capacity returns the maximum number of elements.
func (l *List) Capacity() int { return l.capacity }

// SublistSize returns the configured sublist size S.
func (l *List) SublistSize() int { return l.sublistSize }

// NumSublists returns the number of physical sublists the geometry
// provides, 2·⌈N/S⌉ + 2; storage is bound to as many as were ever active
// at once.
func (l *List) NumSublists() int { return l.numSublists }

// Stats returns a copy of the accumulated operation counters.
func (l *List) Stats() Stats { return l.stats }

// Contains reports whether id is currently queued.
func (l *List) Contains(id uint32) bool {
	_, ok := l.flows.Get(idtab.ID(id))
	return ok
}

// Enqueue inserts e at the position dictated by its rank ("Push-In",
// §3.1). Equal-rank elements are placed after existing ones so they
// dequeue in FIFO order. It returns ErrFull at capacity and ErrDuplicate
// if e.ID is already queued.
func (l *List) Enqueue(e Entry) error {
	if l.size == l.capacity {
		return ErrFull
	}
	return l.enqueue(newElement(e))
}

// enqueue is Enqueue's §5.2 insert datapath; the capacity check has
// already passed. It selects the target sublist and the arena slot
// first — both read-only, bar a step of arena growth — so that the flow
// index's duplicate check is also the insert of the new key: one probe,
// and a duplicate returns before anything is charged or changed.
func (l *List) enqueue(elem element) error {
	// Cycle 1: the hardware compares (order[i].smallest_rank > rank)
	// over the whole pointer array in parallel and priority-encodes the
	// first strictly-greater sublist j, selecting j-1 (clamped to the
	// head; an empty list claims its first empty sublist as the head).
	// Every later sublist then ranks strictly above the arrival, so
	// placing it after its equals in j-1 places it after all of them.
	// The software resolves j by binary search, valid because smallest
	// ranks are nondecreasing across the active partition.
	lo, hi := 0, l.active
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.order[mid].smallestRank > elem.rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	pos := max(lo-1, 0)
	if l.free == noHandle {
		l.growArena()
	}
	h := l.free
	if !l.flows.Insert(idtab.ID(elem.id), h+1) {
		return ErrDuplicate
	}
	e := l.arena.at(h)
	l.free, *e = e.sub, elem

	l.stats.Enqueues++
	l.stats.Cycles += 4
	l.size++

	if l.active == 0 {
		l.insertElemAt(0, 0, h)
		l.active = 1
		l.refreshMeta(0)
		l.stats.SublistReads++
		l.stats.SublistWrites++
		return nil
	}

	// Cycle 2: read S (and S' if S is full) from SRAM.
	sl := &l.sublists[l.order[pos].sublistID]
	l.stats.SublistReads++
	wasFull := sl.full(l.sublistSize)

	// Cycle 3: position via parallel compare + priority encode; cycle 4:
	// write back.
	l.stats.ElemCompares += uint64(sl.len())
	l.insertElemAt(pos, l.upperBound(pos, elem.rank), h)

	if wasFull {
		// The insert pushed the sublist to S+1; move its tail into S'.
		// sl is not used past this point: a claim may extend the storage
		// and move l.sublists.
		tail := l.removeAt(sl, sl.len()-1)

		spPos := -1
		if pos+1 < l.active && !l.sublists[l.order[pos+1].sublistID].full(l.sublistSize) {
			spPos = pos + 1
			l.stats.SublistReads++ // S' is a partly full neighbour
		} else {
			// Take a fresh empty sublist and rotate it to pos+1
			// (paper: "shifting S' to the right of S"); it is empty, so
			// no SRAM read is needed.
			spPos = l.claimEmptyAt(pos + 1)
		}
		sp := &l.sublists[l.order[spPos].sublistID]
		l.stats.ElemCompares += uint64(sp.len())
		l.insertElemAt(spPos, 0, tail) // sp's head: tail came before all of sp
		l.refreshMeta(spPos)
		l.stats.SublistWrites++
	}
	l.refreshMeta(pos)
	l.stats.SublistWrites++
	return nil
}

// Dequeue extracts the smallest-ranked eligible element at time now
// ("Extract-Out", §3.1). It returns ok=false when no element is eligible.
// It is the ranged select over the whole ID space: every resident lies in
// [0, math.MaxUint32], so each sublist that passes the time filter holds
// the answer and none is read in vain.
func (l *List) Dequeue(now clock.Time) (Entry, bool) {
	// Cycle 1: priority-encode the first sublist whose smallest
	// send_time passes (now >= smallest_send_time).
	pos, idx, _, _ := l.findInRange(now, 0, math.MaxUint32, false)
	if pos == -1 {
		l.stats.EmptyDequeues++
		l.stats.Cycles++ // the failed select still burns the compare cycle
		return Entry{}, false
	}
	l.stats.Dequeues++
	return l.extract(pos, idx), true
}

// DequeueRange extracts the smallest-ranked element that is eligible at
// now and whose ID lies in [lo, hi] — the logical-PIEO extraction of
// hierarchical scheduling (§4.3), where each non-leaf node's predicate is
// extended with (start <= f.index <= end). The pointer array evaluates
// both conjuncts on its cached metadata: a sublist is read only when its
// smallest send_time passes the time filter AND its resident-ID bounds
// intersect [lo, hi]. Sublists that are read but hold no in-range
// eligible element cost one extra cycle and read each, which Stats
// records; sublists the select skipped cost nothing, exactly as in the
// hardware's parallel select.
func (l *List) DequeueRange(now clock.Time, lo, hi uint32) (Entry, bool) {
	pos, idx, missReads, missCompares := l.findInRange(now, lo, hi, true)
	l.stats.SublistReads += missReads
	l.stats.ElemCompares += missCompares
	l.stats.Cycles += missReads // each miss sends the scan on to the next sublist
	if pos == -1 {
		l.stats.EmptyDequeues++
		l.stats.Cycles++
		return Entry{}, false
	}
	l.stats.RangeDequeues++
	return l.extract(pos, idx), true
}

// extract charges the §5.2 dequeue datapath for the element the select
// found at rank-order index idx of the sublist at order position pos —
// four cycles, the sublist read and its comparators (cycle 3: the first
// match in the rank-ordered window is the smallest-ranked one) — and
// removes it.
func (l *List) extract(pos, idx int) Entry {
	sl := &l.sublists[l.order[pos].sublistID]
	l.stats.Cycles += 4
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	out := l.at(sl, idx).entry()
	l.extractAt(pos, sl, idx)
	return out
}

// Peek returns the element Dequeue would extract at time now, without
// removing it.
func (l *List) Peek(now clock.Time) (Entry, bool) {
	return l.PeekRange(now, 0, math.MaxUint32)
}

// PeekRange returns the element DequeueRange would extract, without
// removing it. It skips by the resident-ID bounds like DequeueRange but
// leaves them as they are: a peek writes nothing.
func (l *List) PeekRange(now clock.Time, lo, hi uint32) (Entry, bool) {
	pos, idx, _, _ := l.findInRange(now, lo, hi, false)
	if pos == -1 {
		return Entry{}, false
	}
	return l.at(&l.sublists[l.order[pos].sublistID], idx).entry(), true
}

// DequeueFlow extracts the element with the given id regardless of
// eligibility (§3.1 dequeue(f)), used by alarm handlers to update an
// element's attributes. It returns ok=false when id is not queued.
func (l *List) DequeueFlow(id uint32) (Entry, bool) {
	v, ok := l.flows.Get(idtab.ID(id))
	if !ok {
		return Entry{}, false
	}
	h := v - 1
	e := l.arena.at(h)
	out, sid := e.entry(), int(e.sub)
	l.stats.FlowDequeues++
	l.stats.Cycles += 4

	pos := l.posOf[sid]
	sl := &l.sublists[sid]
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	idx := slices.Index(sl.hs, h)
	if idx == -1 {
		panic(fmt.Sprintf("pieo: id %d names sublist %d but its handle is not there", id, sid))
	}
	l.extractAt(pos, sl, idx)
	return out, true
}

// findInRange is the list's one Extract-Out select (§5.2 cycle 1 and the
// sublist compare of cycle 3), shared by every dequeue and peek: it
// returns the order position and rank-order index of the smallest-ranked
// element that is eligible at now with ID in [lo, hi], or pos = -1.
// Because sublists partition the global rank order, the first hit in
// order is the global answer. The packed summary words skip 32
// ineligible positions per probe, and only sublists that pass the time
// filter and whose resident-ID bounds intersect [lo, hi] are read. A
// sublist whose bounds lie inside [lo, hi] passes the ID test on every
// element and cannot miss — its cached smallest send_time passed — so
// over the whole ID space nothing is read in vain. missReads and
// missCompares count the sublists that were (and their comparators), for
// the caller to charge or not.
//
// With tighten set, every sublist read in vain has its bounds recomputed
// exactly — the scan has just seen every resident — so bounds left wide
// by removals stop costing a read once, not on every later scan.
func (l *List) findInRange(now clock.Time, lo, hi uint32, tighten bool) (pos, idx int, missReads, missCompares uint64) {
	// The scan indexes through locals: the compiler must otherwise assume
	// a store through the slices could alias l's fields and re-load them
	// every iteration.
	active := l.active
	blk := l.eligBlk
	ord := l.order
	ids := l.ids
	arena := l.arena
	for pos < active {
		if pos&eligBlockMask == 0 && now < blk[pos>>eligBlockShift] {
			pos += eligBlockLen // no sublist of the block passes the time filter
			continue
		}
		if now < ord[pos].smallestSendTime {
			pos++
			continue
		}
		sid := ord[pos].sublistID
		b := ids[sid]
		if b.hi < lo || b.lo > hi {
			pos++
			continue
		}
		sl := &l.sublists[sid]
		if i := arena.first(sl.hs, now, lo, hi); i >= 0 {
			return pos, i, missReads, missCompares
		}
		if lo <= b.lo && b.hi <= hi {
			panic(fmt.Sprintf("pieo: sublist metadata/content mismatch at t=%v", now))
		}
		missReads++
		missCompares += uint64(sl.len())
		if tighten {
			b := noIDs
			for _, h := range sl.hs {
				b.admit(arena.at(h).id)
			}
			ids[sid] = b
		}
		pos++
	}
	return -1, -1, missReads, missCompares
}

// MinSendTime returns the smallest send_time across all queued elements —
// the fold of the active packed summary words, O(√N/32) sequential
// loads. Fair-queueing algorithms use it as the "minimum start time among
// backlogged flows" term of the WF²Q+ virtual-time update. ok is false
// when the list is empty.
func (l *List) MinSendTime() (clock.Time, bool) {
	if l.active == 0 {
		return 0, false
	}
	minT := clock.Never
	for _, w := range l.eligBlk[:(l.active+eligBlockMask)>>eligBlockShift] {
		minT = min(minT, w)
	}
	return minT, true
}

// NextWakeAfter returns the exact smallest send_time strictly greater
// than now among queued elements, or clock.Never when none exists — the
// backend.Backend wake query, answered from the Ordered-Sublist-Array
// by a pruned walk: a block whose summary word is past now contributes
// that word and is skipped whole, a sublist whose cached smallest
// send_time is past now contributes it, a sublist whose latest send_time
// is at or before now contributes nothing, and only a sublist that
// straddles now is binary-searched. After a Carousel drain (everything
// left is in the future) that is O(√N/32) with no element touched; the
// worst case, every sublist straddling, is O(√N·log S).
func (l *List) NextWakeAfter(now clock.Time) clock.Time {
	best := clock.Never
	active := l.active
	blk := l.eligBlk
	ord := l.order
	for pos := 0; pos < active; {
		if pos&eligBlockMask == 0 {
			if w := blk[pos>>eligBlockShift]; w > now {
				best = min(best, w)
				pos += eligBlockLen
				continue
			}
		}
		p := &ord[pos]
		pos++
		if t := p.smallestSendTime; t > now {
			best = min(best, t)
			continue
		}
		elig := l.sublists[p.sublistID].elig
		// elig[0] <= now; the answer, if any, lies in (0, hi].
		lo, hi := 1, len(elig)-1
		if elig[hi] <= now {
			continue
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if elig[mid] <= now {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		best = min(best, elig[hi])
	}
	return best
}

// EligIndexActive implements backend.EligIndexed: always true. The index
// is the list's own exact metadata (sublist.elig, ptr.smallestSendTime,
// eligBlk), so MinSendTime is exact and cheap after every mutation.
func (l *List) EligIndexActive() bool { return true }

// DisableEligIndex implements backend.EligIndexed as a no-op: the list
// has one time index and no second path to fall back to.
func (l *List) DisableEligIndex() {}

// MaxRankEntry returns the last element in (rank, FIFO) order — the push-out
// victim a rank-aware admission policy evicts when a higher-priority
// arrival meets a full list. O(1): the last active sublist tails the
// global rank order, and its last entry tails the sublist order. Among
// equal maximal ranks the newest arrival is returned, so push-out sheds
// the element fair queueing would have served last. ok is false when the
// list is empty.
func (l *List) MaxRankEntry() (Entry, bool) {
	if l.active == 0 {
		return Entry{}, false
	}
	sl := &l.sublists[l.order[l.active-1].sublistID]
	return l.at(sl, sl.len()-1).entry(), true
}

// extractAt removes entry idx from the sublist at order position pos and
// restores Invariant 1 (§5.2 dequeue cycles 2–4): a previously-full
// sublist is refilled from a partially-full neighbor, and emptied
// sublists move to the empty partition.
func (l *List) extractAt(pos int, sl *sublist, idx int) {
	wasFull := sl.full(l.sublistSize)
	h := l.removeAt(sl, idx)
	e := l.arena.at(h)
	l.flows.Delete(idtab.ID(e.id))
	e.sub, l.free = l.free, h
	l.size--
	l.stats.SublistWrites++

	if wasFull && sl.len() > 0 {
		// Refill from a non-full neighbor so S stays full; prefer the
		// left neighbor (its tail becomes S's head), else the right
		// (its head becomes S's tail). Reading the donor uses the SRAM
		// port pair of cycle 2.
		if pos > 0 {
			left := &l.sublists[l.order[pos-1].sublistID]
			if !left.full(l.sublistSize) {
				l.stats.SublistReads++
				l.stats.ElemCompares += uint64(left.len())
				l.insertElemAt(pos, 0, l.removeAt(left, left.len()-1))
				l.stats.SublistWrites++
				if left.len() == 0 {
					l.retire(pos - 1)
					pos-- // order shifted left past the retired slot
				} else {
					l.refreshMeta(pos - 1)
				}
				l.refreshMeta(pos)
				return
			}
		}
		if pos+1 < l.active {
			right := &l.sublists[l.order[pos+1].sublistID]
			if !right.full(l.sublistSize) {
				l.stats.SublistReads++
				l.stats.ElemCompares += uint64(right.len())
				l.insertElemAt(pos, sl.len(), l.removeAt(right, 0))
				l.stats.SublistWrites++
				if right.len() == 0 {
					l.retire(pos + 1)
				} else {
					l.refreshMeta(pos + 1)
				}
				l.refreshMeta(pos)
				return
			}
		}
	}

	if sl.len() == 0 {
		l.retire(pos)
		return
	}
	l.refreshMeta(pos)
}

// upperBound returns the first rank-order index of the sublist at order
// position pos whose rank exceeds r — where the hardware's parallel
// compare + priority encode places an arrival (callers charge the
// comparator stats). Placing it after its equals is what makes equal
// ranks leave in FIFO order: the list stores no arrival stamp, as the
// hardware stores none. The sublist's ranks lie between its cached
// smallest rank and the next sublist's (the tail's own for the last
// sublist), so a rank outside them costs no probe; inside, the search
// guesses by interpolating between the two and gallops from the guess to
// the exact bound, about 2·log2(d) probes of the arena for a guess d
// places off.
func (l *List) upperBound(pos int, r uint64) int {
	hs, arena := l.sublists[l.order[pos].sublistID].hs, l.arena
	n := len(hs)
	first := l.order[pos].smallestRank
	if n == 0 || r < first {
		return 0
	}
	last := arena.at(hs[n-1]).rank
	if pos+1 < l.active {
		last = l.order[pos+1].smallestRank
	}
	if r >= last {
		return n
	}
	// first <= r < last. Gallop from the guess g, keeping every index
	// below lo ranked <= r and every index from hi on ranked above it.
	g := min(int(float64(r-first)/float64(last-first)*float64(n)), n-1)
	lo, hi, step := 0, n, 1
	if arena.at(hs[g]).rank <= r {
		for lo = g + 1; lo+step <= n && arena.at(hs[lo+step-1]).rank <= r; step <<= 1 {
			lo += step
		}
		hi = min(lo+step-1, n)
	} else {
		for hi = g; hi >= step && arena.at(hs[hi-step]).rank > r; step <<= 1 {
			hi -= step
		}
		lo = max(hi-step+1, 0)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r < arena.at(hs[mid]).rank {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insertElemAt places the element at handle h at rank-order index idx of
// the sublist at order position pos — its position in rank order, which
// an Invariant-1 move knows without searching — records the sublist in
// the element, and adds its send_time to the eligibility multiset. It
// widens the sublist's resident-ID bounds; the pointer-array metadata is
// the caller's refreshMeta.
func (l *List) insertElemAt(pos, idx int, h uint32) {
	sid := l.order[pos].sublistID
	sl := &l.sublists[sid]
	e := l.arena.at(h)
	e.sub = uint32(sid)
	l.ids[sid].admit(e.id)
	sl.insertHandleAt(idx, h)
	sl.insertElig(e.sendTime)
}

// removeAt deletes entry idx from the rank order and its send_time from
// the eligibility multiset, and returns its handle.
func (l *List) removeAt(sl *sublist, idx int) uint32 {
	h := sl.hs[idx]
	sl.removeHandleAt(idx)
	sl.removeElig(l.arena.at(h).sendTime)
	return h
}

// at returns the element at rank-order index i of sl.
func (l *List) at(sl *sublist, i int) *element { return l.arena.at(sl.hs[i]) }

// refreshMeta recomputes the cached pointer-array attributes of the
// sublist at order position pos, and the packed summary word covering it.
// The summary update is incremental: a send_time at or below the block
// minimum replaces it in O(1), and only the "this position held the
// minimum and it rose" case rescans the block — so the all-eligible fast
// path (every send_time clock.Always) never rescans.
func (l *List) refreshMeta(pos int) {
	sl := &l.sublists[l.order[pos].sublistID]
	old := l.order[pos].smallestSendTime
	var t clock.Time
	if sl.len() == 0 {
		l.order[pos].smallestRank = 0
		l.order[pos].smallestSendTime = clock.Never
		l.ids[l.order[pos].sublistID] = noIDs
		t = clock.Never
	} else {
		t = sl.elig[0]
		l.order[pos].smallestRank = l.at(sl, 0).rank
		l.order[pos].smallestSendTime = t
	}
	b := pos >> eligBlockShift
	switch {
	case t <= l.eligBlk[b]:
		// Every other position in the block is >= the old minimum >= t.
		l.eligBlk[b] = t
	case old == l.eligBlk[b]:
		// pos may have been the sole holder of the minimum.
		l.refreshEligBlock(b)
	}
	// Otherwise: old > blk means another position holds the minimum, and
	// t > blk cannot lower it — the word is already exact.
}

// refreshEligBlock recomputes summary word b over its active coverage.
func (l *List) refreshEligBlock(b int) {
	lo := b << eligBlockShift
	hi := lo + eligBlockLen
	if hi > l.active {
		hi = l.active
	}
	m := clock.Never
	for i := lo; i < hi; i++ {
		if t := l.order[i].smallestSendTime; t < m {
			m = t
		}
	}
	l.eligBlk[b] = m
}

// rebuildEligBlocksFrom recomputes every summary word from the one
// covering pos through the end of the active partition, after a
// pointer-array shift (claimEmptyAt, retire) moved positions across
// block boundaries. Cost is proportional to the shifted range the caller
// already paid for.
func (l *List) rebuildEligBlocksFrom(pos int) {
	if l.active == 0 {
		l.eligBlk[0] = clock.Never
		return
	}
	last := (l.active - 1) >> eligBlockShift
	for b := pos >> eligBlockShift; b <= last; b++ {
		l.refreshEligBlock(b)
	}
}

// claimEmptyAt rotates the first empty sublist into order position pos
// (shifting [pos, active) right by one) and grows the active partition.
// It returns pos.
func (l *List) claimEmptyAt(pos int) int {
	if l.active == len(l.order) {
		l.extend()
	}
	claimed := l.order[l.active]
	copy(l.order[pos+1:l.active+1], l.order[pos:l.active])
	l.order[pos] = claimed
	l.active++
	for i := pos; i < l.active; i++ {
		l.posOf[l.order[i].sublistID] = i
	}
	l.rebuildEligBlocksFrom(pos)
	return pos
}

// retire moves the (now empty) sublist at order position pos to the head
// of the empty partition and shrinks the active partition.
func (l *List) retire(pos int) {
	emptied := l.order[pos]
	copy(l.order[pos:l.active-1], l.order[pos+1:l.active])
	l.active--
	l.order[l.active] = emptied
	l.order[l.active].smallestRank = 0
	l.order[l.active].smallestSendTime = clock.Never
	l.ids[emptied.sublistID] = noIDs
	for i := pos; i <= l.active; i++ {
		l.posOf[l.order[i].sublistID] = i
	}
	l.rebuildEligBlocksFrom(pos)
}

// Snapshot returns the Global-Ordered-List: every queued entry in
// increasing (rank, FIFO) order. The output is allocated exactly once at
// l.size and filled by index. It is O(n) and intended for tests,
// debugging, and experiment reporting.
func (l *List) Snapshot() []Entry {
	out := make([]Entry, l.size)
	k := 0
	for i := 0; i < l.active; i++ {
		for _, h := range l.sublists[l.order[i].sublistID].hs {
			out[k] = l.arena.at(h).entry()
			k++
		}
	}
	return out
}

// CheckInvariants validates the complete §5 data-structure contract:
// partitioning of the pointer array, Invariant 1, global rank order,
// metadata coherence (the resident-ID bounds conservative for every
// active sublist and cleared for every empty one), eligibility-sublist
// coherence, flow-index consistency, plus the software-only structures
// layered on top (packed summary words and the MinSendTime they fold to,
// two-ended window bounds, every arena handle in exactly one window or on
// the free chain and naming the sublist whose window holds it, the flow
// index's own probe structure). Tests call it after every mutation; it
// returns the first violation found.
func (l *List) CheckInvariants() error {
	if l.active < 0 || l.active > len(l.order) {
		return fmt.Errorf("active=%d out of range", l.active)
	}
	if want := 2*((l.capacity+l.sublistSize-1)/l.sublistSize) + 2; l.numSublists != want {
		return fmt.Errorf("NumSublists=%d, want %d", l.numSublists, want)
	}
	// Storage growth: every per-sublist array covers the same bound ids,
	// within the geometry's limit.
	if n := len(l.order); n > l.numSublists || len(l.sublists) != n || len(l.posOf) != n ||
		len(l.ids) != n || len(l.eligBlk)<<eligBlockShift < n {
		return fmt.Errorf("bound %d sublists of %d: %d stores, %d posOf, %d id bounds, %d summary words",
			n, l.numSublists, len(l.sublists), len(l.posOf), len(l.ids), len(l.eligBlk))
	}
	seen := make([]bool, len(l.sublists))
	slots := 0
	for _, c := range l.arena {
		slots += len(c)
	}
	held := make([]bool, slots)                     // handles met in a window or on the free chain
	times := make([]clock.Time, 0, l.sublistSize+1) // the sublist's send_times, sorted
	total := 0
	minSend := clock.Never
	var prev *element
	for i, p := range l.order {
		if p.sublistID < 0 || p.sublistID >= len(l.sublists) {
			return fmt.Errorf("position %d names sublist %d, only %d bound", i, p.sublistID, len(l.sublists))
		}
		if seen[p.sublistID] {
			return fmt.Errorf("sublist %d appears twice in order", p.sublistID)
		}
		seen[p.sublistID] = true
		if l.posOf[p.sublistID] != i {
			return fmt.Errorf("posOf[%d]=%d, want %d", p.sublistID, l.posOf[p.sublistID], i)
		}
		sl := &l.sublists[p.sublistID]
		if want := 2 * (l.sublistSize + 1); len(sl.hbuf) != want || len(sl.tbuf) != want {
			return fmt.Errorf("sublist %d bound to stores of %d/%d, want %d",
				p.sublistID, len(sl.hbuf), len(sl.tbuf), want)
		}
		if sl.hstart < 0 || sl.hstart+len(sl.hs) > len(sl.hbuf) {
			return fmt.Errorf("sublist %d handle window [%d,%d) outside store of %d",
				p.sublistID, sl.hstart, sl.hstart+len(sl.hs), len(sl.hbuf))
		}
		for _, h := range sl.hs {
			if int(h) >= len(held) || held[h] {
				return fmt.Errorf("sublist %d handle %d out of range or held twice", p.sublistID, h)
			}
			held[h] = true
			if sub := l.arena.at(h).sub; int(sub) != p.sublistID {
				return fmt.Errorf("handle %d in the window of sublist %d names sublist %d", h, p.sublistID, sub)
			}
		}
		if sl.tstart < 0 || sl.tstart+len(sl.elig) > len(sl.tbuf) {
			return fmt.Errorf("sublist %d elig window [%d,%d) outside store of %d",
				p.sublistID, sl.tstart, sl.tstart+len(sl.elig), len(sl.tbuf))
		}
		if i < l.active {
			if sl.len() == 0 {
				return fmt.Errorf("active position %d is empty", i)
			}
		} else {
			if sl.len() != 0 {
				return fmt.Errorf("empty-partition position %d has %d elements", i, sl.len())
			}
			if b := l.ids[p.sublistID]; b != noIDs {
				return fmt.Errorf("empty-partition position %d keeps id bounds [%d,%d]", i, b.lo, b.hi)
			}
			continue
		}
		// Invariant 1: no two consecutive partially-full active sublists.
		if i+1 < l.active {
			next := &l.sublists[l.order[i+1].sublistID]
			if !sl.full(l.sublistSize) && !next.full(l.sublistSize) {
				return fmt.Errorf("Invariant 1 violated at positions %d,%d (len %d,%d, S=%d)",
					i, i+1, sl.len(), next.len(), l.sublistSize)
			}
		}
		// Metadata coherence.
		if head := l.at(sl, 0); p.smallestRank != head.rank {
			return fmt.Errorf("position %d smallestRank=%d, want %d", i, p.smallestRank, head.rank)
		}
		if len(sl.elig) != sl.len() {
			return fmt.Errorf("position %d eligibility size %d, want %d", i, len(sl.elig), sl.len())
		}
		if p.smallestSendTime != sl.elig[0] {
			return fmt.Errorf("position %d smallestSendTime=%v, want %v", i, p.smallestSendTime, sl.elig[0])
		}
		// The eligibility sublist is exactly the entries' send_times, sorted.
		times = times[:0]
		for _, h := range sl.hs {
			times = append(times, l.arena.at(h).sendTime)
		}
		slices.Sort(times)
		if !slices.Equal(sl.elig, times) {
			return fmt.Errorf("position %d eligibility sublist %v, want the entries' send_times sorted: %v", i, sl.elig, times)
		}
		// Global rank order across the sublist concatenation. FIFO among
		// equal ranks is positional and leaves no trace to check here;
		// the conformance suite checks it against refmodel.
		for _, h := range sl.hs {
			e := l.arena.at(h)
			if prev != nil && e.less(prev) {
				return fmt.Errorf("global order violated: %v before %v", prev.entry(), e.entry())
			}
			prev = e
			minSend = min(minSend, e.sendTime)
			if v, ok := l.flows.Get(idtab.ID(e.id)); !ok || v-1 != h {
				return fmt.Errorf("flow index for id %d = (%d,%v), want handle %d", e.id, int64(v)-1, ok, h)
			}
			if b := l.ids[p.sublistID]; e.id < b.lo || e.id > b.hi {
				return fmt.Errorf("position %d id bounds [%d,%d] miss resident id %d", i, b.lo, b.hi, e.id)
			}
			total++
		}
	}
	if total != l.size {
		return fmt.Errorf("size=%d but %d elements stored", l.size, total)
	}
	// The free chain holds exactly the handles no window holds.
	free := 0
	for h := l.free; h != noHandle; h = l.arena.at(h).sub {
		if int(h) >= len(held) || held[h] {
			return fmt.Errorf("free handle %d out of range or also held", h)
		}
		held[h] = true
		free++
	}
	if total+free != len(held) {
		return fmt.Errorf("arena of %d slots: %d held by windows, %d free", len(held), total, free)
	}
	// Every resident resolved above, so an index of exactly size keys
	// holds nothing else; check covers the probe structure itself.
	if l.flows.Len() != l.size {
		return fmt.Errorf("flow index has %d entries, size=%d", l.flows.Len(), l.size)
	}
	if err := l.flows.Check(); err != nil {
		return fmt.Errorf("flow index: %w", err)
	}
	// Packed summary words must be the exact block minima.
	for b := 0; b<<eligBlockShift < l.active; b++ {
		lo := b << eligBlockShift
		hi := lo + eligBlockLen
		if hi > l.active {
			hi = l.active
		}
		m := clock.Never
		for i := lo; i < hi; i++ {
			if t := l.order[i].smallestSendTime; t < m {
				m = t
			}
		}
		if l.eligBlk[b] != m {
			return fmt.Errorf("summary word %d = %v, want %v", b, l.eligBlk[b], m)
		}
	}
	// The index end to end: the fold of the summary words is the minimum
	// over the elements themselves.
	if t, ok := l.MinSendTime(); ok != (l.size > 0) || (ok && t != minSend) {
		return fmt.Errorf("MinSendTime = %v,%v, brute force %v over %d elements", t, ok, minSend, l.size)
	}
	return nil
}
