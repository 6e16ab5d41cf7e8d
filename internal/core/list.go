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
// clock cycles; the model counts cycles, sublist reads/writes (SRAM port
// usage), and comparator activations in Stats so the evaluation harness
// can reason about hardware cost without re-deriving it.
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
//     the block — the same summary-tournament technique internal/shard
//     uses across engines), so finding the first eligible sublist skips
//     32 positions per probe instead of scanning all ~2√N.
//   - A sublist's elements sit in an unordered row and its rank order
//     is a window of 16-bit slot numbers over that row, so an insert or
//     removal writes one element and shifts 2-byte numbers. The windows
//     live in two-ended stores with slack on both sides: head/tail
//     insertions and removals — the common case on both the enqueue
//     split path and the dequeue refill path — shift nothing, interior
//     shifts move whichever side is shorter, and a window that has
//     drifted to an edge of its store is moved back to the middle once
//     per ~S/2 operations (see sublist).
//
// Stats still counts the work the HARDWARE would do — all comparators
// charged per parallel compare, four cycles per op — not the software's
// shortcut, so hardware-cost experiments are unaffected by software
// optimization (see Stats).
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

	"pieo/internal/clock"
)

// Entry is one element of the ordered list: a flow (or packet) identifier
// with its programmable rank and eligibility time. The paper's prototype
// uses 16-bit rank and send_time fields; this model widens them to 64
// bits so virtual-time algorithms never wrap, and leaves bit-width
// costing to internal/hwmodel.
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
	// ErrShardDown is returned by sharded backends when an operation
	// cannot be served because the responsible partition is quarantined
	// (and, for writes, no healthy partition could absorb the traffic).
	ErrShardDown = errors.New("pieo: shard down")
	// ErrUnknownFlow is recorded by scheduler layers when an ordered list
	// yields an ID with no registered flow state — a wiring fault between
	// the list and the flow table.
	ErrUnknownFlow = errors.New("pieo: unknown flow")
)

// Stats counts the work performed by the list, in hardware terms.
// Cycles follows the §5.2 datapath: four cycles per primitive operation.
// Range dequeues (the hierarchical logical-PIEO path, §4.3) select on both
// conjuncts of the predicate in the pointer array: a sublist is read only
// when its cached smallest send_time passes the time filter and its
// cached resident-ID bounds intersect the requested index range, and
// only sublists that are read are charged. The bounds are conservative,
// so a sublist can still be read in vain — its in-range residents are all
// ineligible, or removals left its bounds wider than its contents; each
// such sublist costs one additional cycle and one additional read, which
// the model charges explicitly.
//
// The counters describe the HARDWARE datapath, not the software model:
// a parallel compare over the pointer array charges all l.active
// comparators even though the software resolves it with an O(log √N)
// binary search, and batch operations (EnqueueBatch, DequeueUpTo) charge
// exactly what the same operations issued one at a time would.
type Stats struct {
	Enqueues      uint64
	Dequeues      uint64 // successful Dequeue()
	EmptyDequeues uint64 // Dequeue() that found no eligible element
	FlowDequeues  uint64 // successful DequeueFlow()
	RangeDequeues uint64 // successful DequeueRange()

	Cycles        uint64
	SublistReads  uint64 // sublists fetched from SRAM
	SublistWrites uint64 // sublists written back to SRAM
	PtrCompares   uint64 // pointer-array comparator activations
	ElemCompares  uint64 // sublist comparator activations
}

// element is an Entry plus its enqueue sequence number, which breaks rank
// ties in FIFO order exactly as the hardware's insert-after-equals
// placement does.
//
// The fields are Entry's, laid out for the cache rather than for the API:
// the 4-byte id goes last, so an element is 32 bytes — two to a cache
// line. An element is copied only when it enters a sublist (an enqueue
// or an Invariant-1 move); ordering it shifts slot numbers (see sublist).
type element struct {
	rank     uint64
	sendTime clock.Time
	seq      uint64
	id       uint32
}

func newElement(e Entry, seq uint64) element {
	return element{rank: e.Rank, sendTime: e.SendTime, seq: seq, id: e.ID}
}

func (a *element) entry() Entry {
	return Entry{ID: a.id, Rank: a.rank, SendTime: a.sendTime}
}

// key comparison: rank first, then FIFO sequence.
func (a *element) less(b *element) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// sublist is one SRAM-resident sublist: a row of S+1 element slots, the
// rank order over it, and a parallel multiset of send_times ordered
// ascending (the Eligibility-Sublist).
//
// The row is unordered: an element is written once, into any free slot,
// and stays there until it leaves the sublist. Its (rank, seq) order is
// the window slots of 16-bit slot numbers, so an interior insert or
// removal shifts 2-byte numbers where the hardware re-orders the row in
// one cycle. free[len(slots):] is the stack of unused slot numbers, top
// first; the numbers below the top are stale.
//
// The two orders live in two-ended backing stores of capacity 2·(S+1)
// with the live window floating between slack at either end (slots =
// sbuf[sstart : sstart+n]). Removing the head or tail — what every
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
	row   []element    // S+1 slots, unordered
	slots []uint16     // rank-ordered window into sbuf: slot numbers of row
	elig  []clock.Time // ascending send_time window into tbuf
	free  []uint16     // free[len(slots):] are the unused slot numbers

	sbuf   []uint16
	tbuf   []clock.Time
	sstart int // slots window offset within sbuf
	tstart int // elig window offset within tbuf
}

func (s *sublist) len() int           { return len(s.slots) }
func (s *sublist) full(cap_ int) bool { return len(s.slots) == cap_ }

// at returns the element at rank-order index i.
func (s *sublist) at(i int) *element { return &s.row[s.slots[i]] }

// bind attaches backing stores — nums holds the free stack, then the
// slot-number store — centers the (empty) windows and stacks the free
// slot numbers so that the row fills from its start.
func (s *sublist) bind(row []element, nums []uint16, tbuf []clock.Time) {
	n := len(row)
	s.row, s.free, s.sbuf, s.tbuf = row, nums[:n:n], nums[n:], tbuf
	for i := range s.free {
		s.free[i] = uint16(i)
	}
	s.sstart = len(s.sbuf) / 2
	s.tstart = len(tbuf) / 2
	s.slots = s.sbuf[s.sstart:s.sstart]
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

// insertEntryAt writes e into a free slot of the row and places the
// slot's number at rank-order index idx.
func (s *sublist) insertEntryAt(idx int, e element) {
	n := len(s.slots)
	slot := s.free[n]
	s.row[slot] = e
	s.sstart = openSlot(s.sbuf, s.sstart, n, idx)
	s.sbuf[s.sstart+idx] = slot
	s.slots = s.sbuf[s.sstart : s.sstart+n+1]
}

// removeEntryAt deletes rank-order index idx and frees its slot.
func (s *sublist) removeEntryAt(idx int) {
	n := len(s.slots)
	s.free[n-1] = s.slots[idx]
	s.sstart = closeSlot(s.sbuf, s.sstart, n, idx)
	s.slots = s.sbuf[s.sstart : s.sstart+n-1]
}

// firstEligible returns the rank-order index of the first element with
// send_time <= now — the smallest-ranked eligible element of the sublist.
// Callers select the sublist on metadata that says one exists; its
// absence is a datapath bug, not a runtime condition.
func (s *sublist) firstEligible(now clock.Time) int {
	for i, slot := range s.slots {
		if s.row[slot].sendTime <= now {
			return i
		}
	}
	panic(fmt.Sprintf("pieo: sublist metadata/content mismatch at t=%v", now))
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

// ptr is one Ordered-Sublist-Array entry (§5.2). smallestSeq caches the
// FIFO sequence of the sublist's head element alongside its rank: the
// enqueue-side sublist selection must compare full (rank, seq) keys, not
// ranks alone, because EnqueueSeq callers (the sharded engine, which
// draws a sequence before taking the shard lock, and its quarantine
// replay) may insert equal-rank elements out of sequence order — an
// arriving element can carry a SMALLER seq than a cached head, and a
// rank-only "not greater means older" tie-break would then pick a sublist
// to the right of the element's true position, breaking the global
// (rank, seq) order across sublists.
type ptr struct {
	sublistID        int
	smallestRank     uint64
	smallestSeq      uint64
	smallestSendTime clock.Time
	num              int
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

	size  int
	seq   uint64
	flows flowTab // flow id -> sublist id (per-flow state, §5.2 Dequeue(f))

	stats Stats
}

// maxSublistSize is the largest S: slot numbers 0…S are 16 bits wide.
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
// used by the sublist-geometry ablation and by sharded engines (whose
// shards are bounded by the shared capacity but shaped for their share of
// it). The number of sublists is 2·⌈n/s⌉ + 2: the paper's 2× Invariant-1
// overhead plus two slack sublists so the worst-case full/partial
// alternation can never exhaust the empty partition at the capacity
// boundary. Storage starts at one sublist and grows with the residents.
func NewWithSublistSize(n, s int) *List {
	if n <= 0 || s <= 0 || s > maxSublistSize {
		panic(fmt.Sprintf("pieo: invalid geometry n=%d s=%d", n, s))
	}
	l := &List{
		capacity:    n,
		sublistSize: s,
		numSublists: 2*((n+s-1)/s) + 2,
		flows:       newFlowTab(0),
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
	// One row slot's share of a sublist: the element, a free-stack entry,
	// and a slot number and a send_time in each half of the two-ended
	// stores.
	slotBytes    = 32 + 2 + 2*(2+8)
	maxStepBytes = 256 << 10
)

// extend binds the next step of sublists: their rows and stores and
// their entries in every per-sublist array, the new ids joining the tail
// of the empty partition. Appending moves those arrays, so no *sublist or
// *ptr may be held across a call (only claimEmptyAt calls it after
// construction). Once the high-water mark is reached the operation path
// allocates nothing.
func (l *List) extend() {
	slots := l.sublistSize + 1
	first := len(l.order)
	k := min(max(first, 1), max(maxStepBytes/(slots*slotBytes), 1), l.numSublists-first)
	if k <= 0 {
		panic("pieo: empty-sublist partition exhausted; Invariant 1 slack miscomputed")
	}
	rows := make([]element, k*slots)
	nums := make([]uint16, k*3*slots)
	tbuf := make([]clock.Time, k*2*slots)
	for i := 0; i < k; i++ {
		lo, hi := i*slots, (i+1)*slots
		var sl sublist
		sl.bind(rows[lo:hi:hi], nums[3*lo:3*hi:3*hi], tbuf[2*lo:2*hi:2*hi])
		l.sublists = append(l.sublists, sl)
		l.order = append(l.order, ptr{sublistID: first + i, smallestSendTime: clock.Never})
		l.posOf = append(l.posOf, first+i)
		l.ids = append(l.ids, noIDs)
	}
	for len(l.eligBlk)<<eligBlockShift < len(l.order) {
		l.eligBlk = append(l.eligBlk, clock.Never)
	}
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
	_, ok := l.flows.lookup(id)
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
	err := l.enqueue(newElement(e, l.seq+1))
	if err == nil {
		l.seq++
	}
	return err
}

// EnqueueSeq inserts e with a caller-supplied FIFO tie-break sequence
// instead of the list's internal counter. Sharded engines use it to stamp
// a single global arrival order across many lists, so equal-rank elements
// on different shards still dequeue in true FIFO order without any
// per-element bookkeeping outside the lists themselves. A given list must
// be driven either through Enqueue or through EnqueueSeq, not a mix: the
// internal counter and an external one would interleave arbitrarily.
func (l *List) EnqueueSeq(e Entry, seq uint64) error {
	if l.size == l.capacity {
		return ErrFull
	}
	return l.enqueue(newElement(e, seq))
}

// enqueue is the §5.2 insert datapath shared by Enqueue and EnqueueSeq;
// the capacity check has already passed. It selects the target sublist
// first — a read-only search — so that the flow index's duplicate check
// is also the insert of the new key: one probe, and a duplicate returns
// before anything is charged or changed.
func (l *List) enqueue(elem element) error {
	// Cycle 1: the hardware compares (order[i].smallest key > elem key)
	// over the whole pointer array in parallel and priority-encodes the
	// first strictly-greater sublist j, selecting j-1 (clamped to the
	// head; an empty list claims its first empty sublist as the head).
	// The key is the full (rank, seq) pair: under Enqueue's internal
	// counter a cached head is always older than a new element, so
	// rank-only comparison would suffice, but EnqueueSeq callers may
	// stamp sequences out of arrival order (see ptr.smallestSeq) and
	// equal-rank placement must then honor the stamped order. Stats charge
	// all l.active comparators; the software resolves j by binary search,
	// valid because smallest keys are nondecreasing across the active
	// partition.
	lo, hi := 0, l.active
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		p := &l.order[mid]
		if p.smallestRank > elem.rank ||
			(p.smallestRank == elem.rank && p.smallestSeq > elem.seq) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	pos := max(lo-1, 0)
	sid := l.order[pos].sublistID
	if !l.flows.insert(elem.id, sid) {
		return ErrDuplicate
	}

	l.stats.Enqueues++
	l.stats.Cycles += 4
	l.size++

	if l.active == 0 {
		l.insertElem(0, elem)
		l.active = 1
		l.refreshMeta(0)
		l.stats.SublistReads++
		l.stats.SublistWrites++
		return nil
	}
	l.stats.PtrCompares += uint64(l.active)

	// Cycle 2: read S (and S' if S is full) from SRAM.
	sl := &l.sublists[sid]
	l.stats.SublistReads++
	wasFull := sl.full(l.sublistSize)

	// Cycle 3: position via parallel compare + priority encode; cycle 4:
	// write back.
	l.stats.ElemCompares += uint64(sl.len())
	l.insertElem(pos, elem)

	if wasFull {
		// The insert pushed the sublist to S+1; move its tail into S'.
		// sl is not used past this point: a claim may extend the storage
		// and move l.sublists.
		tail := *sl.at(sl.len() - 1)
		l.removeAt(sl, sl.len()-1)

		spPos := -1
		if pos+1 < l.active && !l.sublists[l.order[pos+1].sublistID].full(l.sublistSize) {
			spPos = pos + 1
		} else {
			// Take a fresh empty sublist and rotate it to pos+1
			// (paper: "shifting S' to the right of S").
			spPos = l.claimEmptyAt(pos + 1)
		}
		sp := &l.sublists[l.order[spPos].sublistID]
		l.stats.SublistReads++
		l.stats.ElemCompares += uint64(sp.len())
		l.insertElemAt(spPos, 0, tail) // sp's head: tail.key < all of sp
		l.flows.move(tail.id, l.order[spPos].sublistID)
		l.refreshMeta(spPos)
		l.stats.SublistWrites++
	}
	l.refreshMeta(pos)
	l.stats.SublistWrites++
	return nil
}

// firstEligible returns the first active position whose cached smallest
// send_time passes the time filter at now, or -1. Because sublists
// partition the global rank order, that position holds the globally
// smallest-ranked eligible element. The packed summary words skip 32
// ineligible positions per probe; a word that passes guarantees a hit
// inside its block (the summary is exact), and "nothing eligible
// anywhere" costs one sequential pass over the active words.
//
// startPos is a resume hint for batch extraction: callers must guarantee
// that every position before it is ineligible at now.
func (l *List) firstEligible(now clock.Time, startPos int) int {
	// The scan loops index through registers: active, the block-summary
	// slice, and the order slice are hoisted into locals so the inner
	// loops compare against register-resident headers instead of
	// re-loading l's fields (which the compiler must otherwise assume a
	// store through the slices could alias) every iteration.
	pos := startPos
	active := l.active
	blk := l.eligBlk
	ord := l.order
	for pos < active {
		if pos&eligBlockMask == 0 {
			for pos < active && now < blk[pos>>eligBlockShift] {
				pos += eligBlockLen
			}
			if pos >= active {
				return -1
			}
		}
		end := (pos | eligBlockMask) + 1
		if end > active {
			end = active
		}
		for ; pos < end; pos++ {
			if now >= ord[pos].smallestSendTime {
				return pos
			}
		}
	}
	return -1
}

// Dequeue extracts the smallest-ranked eligible element at time now
// ("Extract-Out", §3.1). It returns ok=false when no element is eligible.
func (l *List) Dequeue(now clock.Time) (Entry, bool) {
	e, _, ok := l.dequeueFrom(now, 0)
	return e, ok
}

// dequeueFrom is the Dequeue datapath with a resume hint (see
// firstEligible); it additionally returns the order position the element
// was extracted from, so DequeueUpTo can resume its scan past the
// positions already known ineligible. Stats are charged identically
// regardless of the hint: the hardware's parallel compare always
// activates every pointer-array comparator.
func (l *List) dequeueFrom(now clock.Time, startPos int) (Entry, int, bool) {
	// Cycle 1: priority-encode the first sublist whose smallest
	// send_time passes (now >= smallest_send_time).
	l.stats.PtrCompares += uint64(l.active)
	pos := l.firstEligible(now, startPos)
	if pos == -1 {
		l.stats.EmptyDequeues++
		l.stats.Cycles++ // the failed select still burns the compare cycle
		return Entry{}, -1, false
	}
	l.stats.Dequeues++
	l.stats.Cycles += 4

	sl := &l.sublists[l.order[pos].sublistID]
	l.stats.SublistReads++

	// Cycle 3: first index with send_time <= now is the smallest-ranked
	// eligible element of the sublist (the window is rank-ordered).
	l.stats.ElemCompares += uint64(sl.len())
	idx := sl.firstEligible(now)
	out := sl.at(idx).entry()
	l.extractAt(pos, sl, idx)
	return out, pos, true
}

// Peek returns the element Dequeue would extract at time now, without
// removing it.
func (l *List) Peek(now clock.Time) (Entry, bool) {
	e, _, ok := l.PeekSeq(now)
	return e, ok
}

// PeekSeq is Peek plus the element's FIFO sequence number, which a
// sharded engine's dequeue tournament compares to break equal-rank ties
// across shards.
func (l *List) PeekSeq(now clock.Time) (Entry, uint64, bool) {
	pos := l.firstEligible(now, 0)
	if pos == -1 {
		return Entry{}, 0, false
	}
	sl := &l.sublists[l.order[pos].sublistID]
	e := sl.at(sl.firstEligible(now))
	return e.entry(), e.seq, true
}

// DequeueBelowSeq is the fused peek-or-extract a sharded tournament
// wants: it locates the smallest-ranked eligible element at now in ONE
// eligibility scan, extracts it only when its rank is strictly below
// limit, and otherwise leaves it in place as a peek result. eligible
// reports whether an eligible element exists (e and seq are valid);
// taken reports whether it was extracted. A limit of 0 is a pure peek.
//
// Stats follow the operations the fusion replaces exactly: an extraction
// charges the full §5 dequeue datapath, a peek-only outcome (not
// eligible, or at/above limit) charges nothing — peeks are free, and the
// engine-level caller accounts its own empty tournaments.
func (l *List) DequeueBelowSeq(now clock.Time, limit uint64) (e Entry, seq uint64, eligible, taken bool) {
	pos := l.firstEligible(now, 0)
	if pos == -1 {
		return Entry{}, 0, false, false
	}
	sl := &l.sublists[l.order[pos].sublistID]
	idx := sl.firstEligible(now)
	cand := *sl.at(idx)
	if cand.rank >= limit {
		return cand.entry(), cand.seq, true, false
	}
	l.stats.PtrCompares += uint64(l.active)
	l.stats.Dequeues++
	l.stats.Cycles += 4
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	l.extractAt(pos, sl, idx)
	return cand.entry(), cand.seq, true, true
}

// DequeueRangeBelowSeq is DequeueBelowSeq restricted to IDs in [lo, hi]
// (the logical-PIEO filter, §4.3). Extraction charges exactly what
// DequeueRange would, including the extra cycle and read per sublist
// that was read and held no in-range eligible element; a peek outcome
// charges nothing (but keeps the bounds the scan tightened).
func (l *List) DequeueRangeBelowSeq(now clock.Time, lo, hi uint32, limit uint64) (e Entry, seq uint64, eligible, taken bool) {
	pos, idx, missReads, missCompares := l.findInRange(now, lo, hi, true)
	if pos == -1 {
		return Entry{}, 0, false, false
	}
	sl := &l.sublists[l.order[pos].sublistID]
	cand := *sl.at(idx)
	if cand.rank >= limit {
		return cand.entry(), cand.seq, true, false
	}
	l.stats.PtrCompares += uint64(l.active)
	l.stats.RangeDequeues++
	l.stats.Cycles += 4 + missReads
	l.stats.SublistReads += 1 + missReads
	l.stats.ElemCompares += missCompares + uint64(sl.len())
	l.extractAt(pos, sl, idx)
	return cand.entry(), cand.seq, true, true
}

// DequeueFlow extracts the element with the given id regardless of
// eligibility (§3.1 dequeue(f)), used by alarm handlers to update an
// element's attributes. It returns ok=false when id is not queued.
func (l *List) DequeueFlow(id uint32) (Entry, bool) {
	sid, ok := l.flows.lookup(id)
	if !ok {
		return Entry{}, false
	}
	l.stats.FlowDequeues++
	l.stats.Cycles += 4

	pos := l.posOf[sid]
	sl := &l.sublists[sid]
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	idx := -1
	for i := range sl.slots {
		if sl.at(i).id == id {
			idx = i
			break
		}
	}
	if idx == -1 {
		panic(fmt.Sprintf("pieo: flow index points id %d at sublist %d but it is not there", id, sid))
	}
	out := sl.at(idx).entry()
	l.extractAt(pos, sl, idx)
	return out, true
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
	l.stats.PtrCompares += uint64(l.active)
	pos, idx, missReads, missCompares := l.findInRange(now, lo, hi, true)
	l.stats.SublistReads += missReads
	l.stats.ElemCompares += missCompares
	l.stats.Cycles += missReads // each miss sends the scan on to the next sublist
	if pos == -1 {
		l.stats.EmptyDequeues++
		l.stats.Cycles++
		return Entry{}, false
	}
	sl := &l.sublists[l.order[pos].sublistID]
	l.stats.RangeDequeues++
	l.stats.Cycles += 4
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	out := sl.at(idx).entry()
	l.extractAt(pos, sl, idx)
	return out, true
}

// PeekRange returns the element DequeueRange would extract, without
// removing it.
func (l *List) PeekRange(now clock.Time, lo, hi uint32) (Entry, bool) {
	e, _, ok := l.PeekRangeSeq(now, lo, hi)
	return e, ok
}

// PeekRangeSeq is PeekRange plus the element's FIFO sequence number (see
// PeekSeq). It skips by the resident-ID bounds like DequeueRange but
// leaves them as they are: a peek writes nothing.
func (l *List) PeekRangeSeq(now clock.Time, lo, hi uint32) (Entry, uint64, bool) {
	pos, idx, _, _ := l.findInRange(now, lo, hi, false)
	if pos == -1 {
		return Entry{}, 0, false
	}
	e := l.sublists[l.order[pos].sublistID].at(idx)
	return e.entry(), e.seq, true
}

// findInRange is the ranged select shared by DequeueRange, PeekRangeSeq
// and DequeueRangeBelowSeq: it returns the order position and entry index
// of the smallest-ranked element that is eligible at now with ID in
// [lo, hi], or pos = -1. Only sublists that pass the time filter and
// whose resident-ID bounds intersect [lo, hi] are read; missReads and
// missCompares count the ones read in vain (and their comparators), for
// the caller to charge or not.
//
// With tighten set, every sublist read in vain has its bounds recomputed
// exactly — the scan has just seen every resident — so bounds left wide
// by removals stop costing a read once, not on every later scan.
func (l *List) findInRange(now clock.Time, lo, hi uint32, tighten bool) (pos, idx int, missReads, missCompares uint64) {
	active := l.active
	blk := l.eligBlk
	ord := l.order
	ids := l.ids
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
		if b := ids[sid]; b.hi < lo || b.lo > hi {
			pos++
			continue
		}
		sl := &l.sublists[sid]
		row := sl.row
		for i, slot := range sl.slots {
			e := &row[slot]
			if e.sendTime <= now && e.id >= lo && e.id <= hi {
				return pos, i, missReads, missCompares
			}
		}
		missReads++
		missCompares += uint64(sl.len())
		if tighten {
			b := noIDs
			for _, slot := range sl.slots {
				b.admit(row[slot].id)
			}
			ids[sid] = b
		}
		pos++
	}
	return -1, -1, missReads, missCompares
}

// MinRank returns the smallest rank across all queued elements, in O(1)
// from the Ordered-Sublist-Array: the first active sublist holds the head
// of the global rank order, and its smallest rank is cached in its
// pointer-array entry. Sharded engines use it as the per-shard summary
// the dequeue tournament compares. ok is false when the list is empty.
func (l *List) MinRank() (uint64, bool) {
	if l.active == 0 {
		return 0, false
	}
	return l.order[0].smallestRank, true
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
// backend.EligIndexed capability, answered from the Ordered-Sublist-Array
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
// eligBlk), so MinSendTime is exact and cheap after every mutation —
// what the sharded engine's exact-summary regime relies on.
func (l *List) EligIndexActive() bool { return true }

// DisableEligIndex implements backend.EligIndexed as a no-op: the list
// has one time index and no second path to fall back to.
func (l *List) DisableEligIndex() {}

// MaxRankEntry returns the largest-(rank, FIFO) element — the push-out
// victim a rank-aware admission policy evicts when a higher-priority
// arrival meets a full list. O(1): the last active sublist tails the
// global rank order, and its last entry tails the sublist order. Among
// equal maximal ranks the newest arrival is returned, so push-out sheds
// the element fair queueing would have served last. ok is false when the
// list is empty.
func (l *List) MaxRankEntry() (Entry, bool) {
	e, _, ok := l.MaxRankEntrySeq()
	return e, ok
}

// MaxRankEntrySeq is MaxRankEntry plus the element's FIFO sequence, for
// sharded engines that compare victims across partitions.
func (l *List) MaxRankEntrySeq() (Entry, uint64, bool) {
	if l.active == 0 {
		return Entry{}, 0, false
	}
	sl := &l.sublists[l.order[l.active-1].sublistID]
	elem := sl.at(sl.len() - 1)
	return elem.entry(), elem.seq, true
}

// extractAt removes entry idx from the sublist at order position pos and
// restores Invariant 1 (§5.2 dequeue cycles 2–4): a previously-full
// sublist is refilled from a partially-full neighbor, and emptied
// sublists move to the empty partition.
func (l *List) extractAt(pos int, sl *sublist, idx int) {
	wasFull := sl.full(l.sublistSize)
	id := sl.at(idx).id
	l.removeAt(sl, idx)
	l.flows.remove(id)
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
				moved := *left.at(left.len() - 1)
				l.removeAt(left, left.len()-1)
				l.insertElemAt(pos, 0, moved)
				l.flows.move(moved.id, l.order[pos].sublistID)
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
				moved := *right.at(0)
				l.removeAt(right, 0)
				l.insertElemAt(pos, sl.len(), moved)
				l.flows.move(moved.id, l.order[pos].sublistID)
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

// insertElem places elem at its (rank, seq) position in the rank order
// of the sublist at order position pos, locating it by binary search
// (the hardware's parallel compare; callers charge the comparator stats).
func (l *List) insertElem(pos int, elem element) {
	sl := &l.sublists[l.order[pos].sublistID]
	lo, hi := 0, sl.len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if elem.less(sl.at(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	l.insertElemAt(pos, lo, elem)
}

// insertElemAt places elem at rank-order index idx of the sublist at
// order position pos — its (rank, seq) position, which an Invariant-1
// move knows without searching — and its send_time in the eligibility
// multiset. It widens the sublist's resident-ID bounds; the pointer-array
// metadata is the caller's refreshMeta.
func (l *List) insertElemAt(pos, idx int, elem element) {
	sid := l.order[pos].sublistID
	sl := &l.sublists[sid]
	l.ids[sid].admit(elem.id)
	sl.insertEntryAt(idx, elem)
	sl.insertElig(elem.sendTime)
}

// removeAt deletes entry idx from the rank order and its send_time from
// the eligibility multiset.
func (l *List) removeAt(sl *sublist, idx int) {
	st := sl.at(idx).sendTime
	sl.removeEntryAt(idx)
	sl.removeElig(st)
}

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
		l.order[pos].smallestSeq = 0
		l.order[pos].smallestSendTime = clock.Never
		l.order[pos].num = 0
		l.ids[l.order[pos].sublistID] = noIDs
		t = clock.Never
	} else {
		t = sl.elig[0]
		head := sl.at(0)
		l.order[pos].smallestRank = head.rank
		l.order[pos].smallestSeq = head.seq
		l.order[pos].smallestSendTime = t
		l.order[pos].num = sl.len()
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
	l.order[l.active].smallestSeq = 0
	l.order[l.active].smallestSendTime = clock.Never
	l.order[l.active].num = 0
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
		sl := &l.sublists[l.order[i].sublistID]
		for j := range sl.slots {
			out[k] = sl.at(j).entry()
			k++
		}
	}
	return out
}

// SnapshotWithSeq is Snapshot plus each entry's FIFO sequence number, so
// a sharded engine can merge per-shard snapshots into the global
// (rank, FIFO) order. Both outputs are allocated exactly once at l.size.
func (l *List) SnapshotWithSeq() ([]Entry, []uint64) {
	out := make([]Entry, l.size)
	seqs := make([]uint64, l.size)
	k := 0
	for i := 0; i < l.active; i++ {
		sl := &l.sublists[l.order[i].sublistID]
		for j := range sl.slots {
			e := sl.at(j)
			out[k], seqs[k] = e.entry(), e.seq
			k++
		}
	}
	return out, seqs
}

// CheckInvariants validates the complete §5 data-structure contract:
// partitioning of the pointer array, Invariant 1, global rank order,
// metadata coherence (the resident-ID bounds conservative for every
// active sublist and cleared for every empty one), eligibility-sublist
// coherence, flow-index consistency, plus the software-only structures
// layered on top (packed summary words and the MinSendTime they fold to,
// two-ended window bounds, each row's slot numbers split exactly between
// its window and its free stack, the flow index's own probe structure). Tests
// call it after every mutation; it returns the first violation found.
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
	seen := make(map[int]bool, len(l.order))
	used := make([]bool, l.sublistSize+1) // slot numbers met in the sublist at hand
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
		if want := l.sublistSize + 1; len(sl.row) != want || len(sl.free) != want || len(sl.sbuf) != 2*want || len(sl.tbuf) != 2*want {
			return fmt.Errorf("sublist %d bound to a row of %d slots, %d free, stores of %d/%d, want %d, %d, %d/%d",
				p.sublistID, len(sl.row), len(sl.free), len(sl.sbuf), len(sl.tbuf), want, want, 2*want, 2*want)
		}
		if sl.sstart < 0 || sl.sstart+len(sl.slots) > len(sl.sbuf) {
			return fmt.Errorf("sublist %d slot window [%d,%d) outside store of %d",
				p.sublistID, sl.sstart, sl.sstart+len(sl.slots), len(sl.sbuf))
		}
		// The window and the free stack partition the row's slot numbers.
		clear(used)
		for _, nums := range [2][]uint16{sl.slots, sl.free[len(sl.slots):]} {
			for _, slot := range nums {
				if int(slot) >= len(used) || used[slot] {
					return fmt.Errorf("sublist %d slot number %d out of range or held twice", p.sublistID, slot)
				}
				used[slot] = true
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
		if p.num != sl.len() {
			return fmt.Errorf("position %d num=%d, want %d", i, p.num, sl.len())
		}
		if head := sl.at(0); p.smallestRank != head.rank || p.smallestSeq != head.seq {
			return fmt.Errorf("position %d smallest key=(%d,%d), want (%d,%d)", i, p.smallestRank, p.smallestSeq, head.rank, head.seq)
		}
		if len(sl.elig) != sl.len() {
			return fmt.Errorf("position %d eligibility size %d, want %d", i, len(sl.elig), sl.len())
		}
		if p.smallestSendTime != sl.elig[0] {
			return fmt.Errorf("position %d smallestSendTime=%v, want %v", i, p.smallestSendTime, sl.elig[0])
		}
		// Eligibility multiset matches entry send_times.
		times := make(map[clock.Time]int)
		for j := range sl.slots {
			times[sl.at(j).sendTime]++
		}
		for j, t := range sl.elig {
			if j > 0 && sl.elig[j-1] > t {
				return fmt.Errorf("position %d eligibility sublist unsorted at %d", i, j)
			}
			times[t]--
			if times[t] < 0 {
				return fmt.Errorf("position %d eligibility sublist has extra %v", i, t)
			}
		}
		// Global (rank, seq) order across the sublist concatenation, and
		// rank order within the sublist.
		for j := range sl.slots {
			e := sl.at(j)
			if prev != nil && e.less(prev) {
				return fmt.Errorf("global order violated: %v before %v", prev.entry(), e.entry())
			}
			prev = e
			minSend = min(minSend, e.sendTime)
			if sid, ok := l.flows.lookup(e.id); !ok || sid != p.sublistID {
				return fmt.Errorf("flow index for id %d = (%d,%v), want sublist %d", e.id, sid, ok, p.sublistID)
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
	// Every resident resolved above, so an index of exactly size keys
	// holds nothing else; check covers the probe structure itself.
	if l.flows.n != l.size {
		return fmt.Errorf("flow index has %d entries, size=%d", l.flows.n, l.size)
	}
	if err := l.flows.check(); err != nil {
		return err
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
