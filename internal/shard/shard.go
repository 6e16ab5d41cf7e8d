// Package shard implements a sharded concurrent PIEO engine: K
// independently-locked PIEO sublist instances with flows hash-partitioned
// across them, and dequeue implemented as a tournament over per-shard
// (MinRank, MinSendTime) summaries.
//
// This is the software analogue of the paper's §4.3 scaling story lifted
// one level up: where the hardware instantiates "multiple physical PIEOs"
// and partitions flows across them, this engine instantiates multiple
// physical core.Lists, and the tournament plays the role the
// Ordered-Sublist-Array plays inside one list — a small summary layer
// (smallest rank, smallest send_time per partition) that locates the
// winning partition without touching the others. Eiffel (PAPERS.md) wins
// the same way in software with bucketed parallel queues.
//
// Concurrency model: any number of producers may Enqueue concurrently
// with each other and with consumers; producers touching different shards
// never contend, which is the point — SyncList serializes every producer
// on one mutex. Semantics:
//
//   - Quiescent (single-threaded) operation is EXACT: every operation
//     returns precisely what one core.List of the same capacity would,
//     including cross-shard FIFO tie-breaking via a global enqueue
//     sequence stamped into each element (core.EnqueueSeq). The
//     differential tests in internal/core hold the engine to this
//     bit-for-bit against the flat reference model for K=1 and K=8.
//   - Under concurrency, each Dequeue returns an element that was its
//     shard's smallest-ranked eligible element at extraction time, but a
//     racing Enqueue may land a smaller-ranked eligible element on
//     another shard after the tournament has passed it — the same
//     bounded inexactness any partitioned scheduler (including the
//     paper's multi-PIEO hardware, which partitions flows statically)
//     accepts in exchange for parallelism. See DESIGN.md ("Backend
//     interface & sharded engine") for the exactness contract.
//
// Per-shard sublist geometry is sized to the expected per-shard
// occupancy (⌈√(n/K)⌉ instead of ⌈√n⌉), so sharding shortens both the
// pointer-array scans and the sublist shifts in addition to splitting the
// lock.
//
// Fault isolation: a panic inside one shard's list (induced by the fault
// hook, or genuine corruption) quarantines THAT shard instead of taking
// the engine down. The quarantined shard salvages a snapshot of its
// entries, traffic rehashes around it (enqueues probe the next healthy
// shard; the tournament prunes it via its emptied summary), and a
// rebuild gated by a per-shard circuit breaker (clock-driven exponential
// backoff with deterministic jitter) replays the salvage into a fresh
// list, after which the shard serves a half-open probation before full
// re-admission. See quarantine.go for the state machine and DESIGN.md
// §8/§12 for the failure model and supervision layer.
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/supervise"
)

// DefaultShards is the shard count the backend registry uses.
const DefaultShards = 8

// maxShards bounds K so the tournament's stack-local bounds snapshot is
// a fixed-size array (no per-dequeue allocation). Shard counts anywhere
// near it are counterproductive anyway: the tournament scans all K
// summaries, so K should stay within a small multiple of the CPU count.
const maxShards = 64

// dequeueRetries bounds how many times a Dequeue/DequeueRange retries
// after losing an extraction race to a concurrent consumer. Retrying
// forever risks livelock; a handful of attempts covers realistic consumer
// counts, and a false "empty" under heavy contention is permitted by the
// concurrent contract (the caller polls again).
const dequeueRetries = 4

// emptyRank is the minRank summary value of an empty shard; it doubles as
// the emptiness flag, so the tournament prunes empty shards and losing
// shards with a single atomic load. A real element with rank 2^64-1 is
// published clamped to emptyRank-1 so it can never masquerade as
// emptiness; the clamp only lowers the pruning bound, which costs at
// worst a wasted peek, never a wrong skip.
const emptyRank = ^uint64(0)

// cacheLinePad separates hot words from their neighbors. 64 bytes of
// padding on each side of a word guarantees the word shares no cache
// line with the fields around it REGARDLESS of the struct's base
// alignment (two bytes can only share a 64-byte line when they are less
// than 64 bytes apart), which is the property layout_test.go pins.
type cacheLinePad [64]byte

// summaryRank is one shard's minRank summary, padded to a full cache
// line. The summaries used to be packed 8-per-line for consumer read
// density, which is the right call at GOMAXPROCS=1 — but under real
// core parallelism every producer publishes its shard's summary on
// every mutation, and packed summaries make those stores contend for
// one line's ownership across K cores (write-side false sharing, the
// classic RFO ping-pong). Padded, each producer owns its line; the
// dequeue tournament's scan now touches K lines instead of ⌈K/8⌉, but
// it walks them with a fixed 64-byte stride the hardware prefetcher
// recognizes, and at saturation it was going to miss on every freshly
// written summary either way.
type summaryRank struct {
	v atomic.Uint64
	_ [56]byte
}

// shard is one partition: a private seq-aware ordered list behind the
// backend.ShardBackend contract, its lock, and the lock-free summary the
// tournament reads. Cross-shard FIFO sequencing lives inside the list
// elements themselves (ShardBackend.EnqueueSeq), so the shard keeps no
// per-element state of its own — profiling showed a sideband id→seq map
// costing more than the sublist datapath it annotated.
//
// Field layout is deliberate (layout_test.go pins it): the lock-holder's
// working set (mu, list, residency counters, quarantine bookkeeping)
// stays together, while the two words remote cores read or poll WITHOUT
// the lock — minSend (tournament pruning) and downFlag (routing checks)
// — each sit on their own cache line at the end of the struct. Before
// the padding, every resident++ under the lock invalidated the line a
// remote tournament was reading its minSend bound from.
type shard struct {
	mu   sync.Mutex
	list backend.ShardBackend

	// eng points back at the owning engine (for the next-eligible index;
	// see Engine.nextElig).
	eng *Engine

	// idx is list's eligibility-index view when the backend provides one
	// (backend.EligIndexed), nil otherwise; exact caches
	// idx.EligIndexActive() so the summary helpers branch on a plain
	// bool under mu. While exact, minSend is maintained EXACTLY after
	// every mutation — the index makes MinSendTime cheap (core folds a
	// few summary words, cffs reads its wheel) — instead of as a
	// stale-low bound, so raiseNextElig republishes exact engine-wide
	// next-eligible times. Both fields are rebound whenever a list is
	// installed (bindList) and demoted by Engine.DisableEligIndex.
	idx   backend.EligIndexed
	exact bool

	// Summaries published under mu after every mutation, read without the
	// lock by the tournament's pruning pass. A reader may observe a
	// summary one mutation stale; the extraction path re-validates under
	// the lock, so staleness costs a wasted peek, never a wrong result.
	//
	// minRank points into the engine's per-line summary array (see
	// Engine.minRanks); it is exact after every mutation (an O(1) read off
	// the list's pointer array).
	minRank *atomic.Uint64 // emptyRank when empty

	// Exact residency bookkeeping, guarded by mu. resident mirrors
	// list.Len() but survives a panic that leaves the list unreadable, so
	// quarantine can compute how many entries the salvage failed to
	// recover (declared loss) without trusting the broken structure.
	// offHomeResident counts the subset living away from their hash-home
	// shard, so the engine's offHome counter stays exact even when a
	// quarantine loses entries of unknown identity.
	resident        int
	offHomeResident int

	// Quarantine state (see quarantine.go). down is the authoritative
	// flag, guarded by mu; downFlag (below, on its own line) mirrors it
	// for lock-free routing checks. While down, list is nil and the
	// salvage fields hold the entries recovered from the failed
	// incarnation, awaiting rebuild.
	down         bool
	rebuilding   atomic.Bool // CAS-guard: one rebuild attempt at a time
	salvaged     []core.Entry
	salvagedSeqs []uint64
	salvageIDs   map[uint32]struct{}
	statsBase    core.Stats // datapath counters of previous incarnations
	attempts     int        // failed rebuild attempts since quarantine

	// brk is this shard's circuit breaker: it schedules rebuild probes
	// (exponential backoff + deterministic jitter on the engine's
	// supervision clock) and runs the half-open probation that gates full
	// re-admission. Transitions happen under mu; the phase and next-probe
	// instant are additionally published through atomics for the engine's
	// lock-free pre-checks (see supervise.Breaker).
	brk *supervise.Breaker

	// minSend is a LOWER BOUND on the true minimum send time: inserts
	// tighten it in O(1), removals leave it stale-low (recomputing it
	// exactly would cost an O(√n) sublist-metadata scan per mutation,
	// which profiling showed dominating the mutation paths). A low bound
	// is sound for pruning — a shard is skipped only when even its most
	// optimistic element is ineligible — and a failed peek repairs the
	// bound exactly when the staleness wasted work. On an indexed
	// backend (see idx/exact) the recompute is a cheap exact read and
	// minSend is kept exact after every mutation, removals included.
	//
	// minSend and downFlag are read lock-free by REMOTE cores (tournament
	// pruning, routing checks) while the lock-holder mutates the fields
	// above; the pads keep those remote reads off the lock-holder's
	// lines.
	_        cacheLinePad
	minSend  atomic.Uint64 // lower bound; clock.Never when empty
	_        cacheLinePad
	downFlag atomic.Bool
	_        cacheLinePad
}

// noteMutation refreshes the summary after inserting (or re-ranking) an
// element with the given send time, in O(1). Callers must hold mu. On an
// indexed list the minSend summary is refreshed exactly, so a re-rank
// that RAISED a send time tightens it too; otherwise send only lowers
// the stale-safe bound.
func (s *shard) noteMutation(send clock.Time) {
	if r, ok := s.list.MinRank(); ok {
		if r == emptyRank {
			r--
		}
		s.minRank.Store(r)
	}
	if s.exact {
		s.refreshMinSend()
	} else if uint64(send) < s.minSend.Load() {
		s.minSend.Store(uint64(send))
	}
	// The engine-wide index tightens AFTER the shard summary: raiseNextElig
	// recomputes from the summaries, so by the time its version guard can
	// miss this insert, the summary it scans already reflects it.
	s.eng.tightenNextElig(send)
}

// noteRemoval refreshes the summary after removing an element, in O(1);
// minSend stays a stale lower bound unless the shard emptied — except on
// an indexed list, where an exact read keeps it exact so raiseNextElig
// recomputes an exact engine bound instead of a stale-low one. Callers
// must hold mu.
func (s *shard) noteRemoval() {
	if r, ok := s.list.MinRank(); ok {
		if r == emptyRank {
			r--
		}
		s.minRank.Store(r)
		if s.exact {
			s.refreshMinSend()
		}
	} else {
		s.minRank.Store(emptyRank)
		s.minSend.Store(uint64(clock.Never))
	}
}

// refreshMinSend recomputes the exact minimum send time, tightening the
// lower bound after a failed peek showed it stale. Callers must hold mu.
func (s *shard) refreshMinSend() {
	if t, ok := s.list.MinSendTime(); ok {
		s.minSend.Store(uint64(t))
	} else {
		s.minSend.Store(uint64(clock.Never))
	}
}

// bindList installs l as the shard's backend and rebinds the
// eligibility-index capability views (idx, exact). Engine construction
// and quarantine rebuilds are the only callers; both own the shard
// exclusively (pre-publication, or under mu while down). A latched
// Engine.DisableEligIndex propagates here so a rebuilt incarnation
// comes up with its index dropped too.
func (s *shard) bindList(l backend.ShardBackend) {
	s.list = l
	s.idx = nil
	s.exact = false
	if l == nil {
		return
	}
	if ix, ok := l.(backend.EligIndexed); ok {
		off := s.eng.eligOff.Load()
		if off {
			ix.DisableEligIndex()
		}
		s.idx = ix
		// A list with one path (core) stays active when asked to drop
		// its index; the engine's latch decides the summary regime.
		s.exact = !off && ix.EligIndexActive()
	}
}

// Engine is the sharded concurrent PIEO. Create one with New; the zero
// value is not usable.
//
// Field layout is deliberate (layout_test.go pins it). The struct is
// grouped by traffic pattern and the three words every core hammers —
// size (every enqueue/dequeue), seq (every enqueue), and the
// nextElig/eligVer pair (nextElig is LOADED on every dequeue by every
// consumer; eligVer is ADDED on every insert by every producer) — each
// sit on a private cache line. Before the padding, eligVer's
// once-per-insert Add invalidated the line holding nextElig under every
// consumer, turning the O(1) empty-dequeue fast path into a guaranteed
// coherence miss; the pair is the textbook read-hot/write-hot split.
type Engine struct {
	// Read-mostly topology and configuration: written at construction
	// (or via rare Set* calls before traffic), read on every operation.
	shards []*shard

	// minRanks holds every shard's minRank summary, one padded cache
	// line per shard (see summaryRank for the packed-vs-padded
	// trade-off). The tournament walks them with a fixed 64-byte stride;
	// producers each own their line, so publishing a summary never
	// steals a line another producer is about to write.
	minRanks []summaryRank

	capacity int

	// newList constructs one shard's list — the bound ShardFactory the
	// engine was built on. Construction calls it K times; a quarantine
	// rebuild calls it again for the fresh incarnation, so a rebuilt
	// shard always comes back on the same backend with the same geometry.
	newList     func() backend.ShardBackend
	backendName string

	clk  clock.Source               // supervision clock; nil → op-derived (SetClock)
	bcfg supervise.BreakerConfig    // effective breaker config (SetBreakerConfig)
	hook func(shard int, op string) // fault-injection hook; set before traffic

	// Read-hot flags: loaded on every operation's routing decision,
	// written rarely (mode switches, quarantine transitions). They share
	// a line happily — what matters is keeping them OFF the write-hot
	// lines below, so a mode check never misses because a counter moved.
	eligOff    atomic.Bool // latched DisableEligIndex (survives rebuilds)
	downShards atomic.Int32
	probation  atomic.Int32
	offHome    atomic.Int64

	// Write-hot singletons, one line each: every core mutates these, so
	// sharing a line with ANY read path is a coherence miss per op.
	_    cacheLinePad
	size atomic.Int64 // global occupancy, enforces the shared capacity
	_    cacheLinePad
	seq  atomic.Uint64 // global enqueue sequence for FIFO tie-breaks
	_    cacheLinePad

	// nextElig is the engine-wide next-eligible index: a lower bound on
	// the smallest send_time across every element queued in a healthy
	// shard, so a dequeue short-circuits in O(1) — one atomic load — when
	// even the most optimistic element is still in the future, instead of
	// running a K-way tournament to count an empty miss. Inserts tighten
	// it via tightenNextElig (inside noteMutation, after the shard's own
	// summary); an unranged tournament that comes up empty raises it via
	// raiseNextElig. eligVer counts inserts and guards the raise against
	// racing inserts; see DESIGN.md §9 for the ordering argument.
	//
	// The pair is deliberately SPLIT across cache lines: nextElig is
	// read-hot (every consumer, every dequeue) while eligVer is
	// write-hot (every producer, every insert), and the insert-side Add
	// cannot be elided — the version bump is what makes a racing raise
	// abort — so the only fix for the producer-invalidates-consumer
	// pattern is distance.
	nextElig atomic.Uint64
	_        cacheLinePad
	eligVer  atomic.Uint64
	_        cacheLinePad

	// Write-warm counters: bumped on specific outcomes (empty misses,
	// re-ranks, degraded ops), never read on the hot path. They share
	// lines with each other, not with anything read-hot.
	emptyDequeues atomic.Uint64 // tournaments that found nothing eligible
	updateRanks   atomic.Uint64 // successful UpdateRanks (see Stats)

	// Resilience state (see quarantine.go). ops counts degraded-mode
	// operations and doubles as the default supervision clock when no
	// clk is injected; downShards (above, with the read-hot flags) gates
	// every degraded-mode slow path, so the healthy hot path pays one
	// atomic load. probation counts shards currently serving their
	// half-open probe budget. offHome counts entries living away from
	// their hash-home shard (placed there while the home was
	// quarantined); point lookups widen to a full scan only while it is
	// non-zero.
	ops     atomic.Uint64
	fstats  faultCounters
	eventMu sync.Mutex
	events  []FaultEvent
}

// New creates a sharded engine with total capacity n spread over k
// shards (k <= 0 selects DefaultShards; k above maxShards is clamped)
// on the paper-exact core backend — the historical default, bit-for-bit.
func New(n, k int) *Engine {
	e, err := NewNamed(n, k, "core")
	if err != nil {
		panic(fmt.Sprintf("shard: %v", err))
	}
	return e
}

// NewNamed is New over the shard backend registered under backendName
// (backend.RegisterShard) — the backend selector engine construction
// threads up through the facade and the tools.
func NewNamed(n, k int, backendName string) (*Engine, error) {
	factory, err := backend.ShardFactoryFor(backendName)
	if err != nil {
		return nil, err
	}
	e := NewOn(n, k, factory)
	e.backendName = backendName
	return e, nil
}

// NewOn creates a sharded engine whose shards are built by factory. Each
// shard is bounded by the full capacity n — hash partitioning gives no
// worst-case balance guarantee, so any one shard may accept everything —
// while the expected per-shard occupancy ⌈n/k⌉ lets the backend shape
// itself for steady state (core: the sublist geometry S = ⌈√(n/k)⌉; cffs:
// its table sizes). The bound is not an allocation: a core shard's
// storage follows its residents, so K shards of capacity n cost what
// their residents cost, not K·n.
func NewOn(n, k int, factory backend.ShardFactory) *Engine {
	if n <= 0 {
		panic(fmt.Sprintf("shard: capacity must be positive, got %d", n))
	}
	if k <= 0 {
		k = DefaultShards
	}
	if k > maxShards {
		k = maxShards
	}
	cfg := backend.ShardConfig{Capacity: n, ExpectedOccupancy: (n + k - 1) / k}
	e := &Engine{
		shards:      make([]*shard, k),
		minRanks:    make([]summaryRank, k),
		capacity:    n,
		newList:     func() backend.ShardBackend { return factory(cfg) },
		backendName: "custom",
	}
	e.bcfg = supervise.NewBreaker(0, supervise.BreakerConfig{}).Config()
	for i := range e.shards {
		e.shards[i] = &shard{
			eng:     e,
			minRank: &e.minRanks[i].v,
			brk:     supervise.NewBreaker(i, supervise.BreakerConfig{}),
		}
		e.shards[i].bindList(e.newList())
		e.shards[i].minRank.Store(emptyRank)
		e.shards[i].minSend.Store(uint64(clock.Never))
	}
	e.nextElig.Store(uint64(clock.Never))
	return e
}

// NumShards returns K.
func (e *Engine) NumShards() int { return len(e.shards) }

// BackendName reports which registered shard backend the engine runs on
// ("custom" for an unregistered factory passed to NewOn).
func (e *Engine) BackendName() string { return e.backendName }

// Capacity returns the shared capacity.
func (e *Engine) Capacity() int { return e.capacity }

// homeIdx maps a flow ID to its home shard index (Fibonacci hashing —
// IDs are often sequential, so identity modulo would put adjacent flows
// on adjacent shards, which is fine, but a mixing hash also breaks up
// strided ID patterns).
func (e *Engine) homeIdx(id uint32) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(e.shards)))
}

// degraded reports whether any slow-path bookkeeping is live: a
// quarantined shard, or residue entries placed away from their home.
// One or two atomic loads — the healthy hot path's only resilience tax.
func (e *Engine) degraded() bool {
	return e.downShards.Load() != 0 || e.offHome.Load() != 0
}

// tightenNextElig lowers the next-eligible bound to send. It runs at
// every point an element actually lands in (or re-ranks within) a shard
// list, after the shard's summary already shows it — a bound tightened
// earlier would be invisible to the summaries a concurrent raise
// recomputes from, and could be raised right back over the element.
// The version bump lands between the summary store and the CAS so a
// racing raiseNextElig either sees the bump and aborts or sees the
// already-updated summary; the CAS retry loop additionally repairs any
// raise that slips in mid-flight.
func (e *Engine) tightenNextElig(send clock.Time) {
	e.eligVer.Add(1)
	for {
		cur := e.nextElig.Load()
		if uint64(send) >= cur {
			return
		}
		if e.nextElig.CompareAndSwap(cur, uint64(send)) {
			return
		}
	}
}

// raiseNextElig recomputes the next-eligible bound from the healthy
// shards' minSend summaries after an unranged tournament found nothing
// eligible. Quarantined shards are skipped — their salvaged elements are
// not dequeueable until rebuild, which re-tightens the bound when it
// installs the fresh list. The raise is abandoned if any insert ran
// concurrently (version guard) and applied with a single CAS, so it can
// never erase a tighten it did not observe.
func (e *Engine) raiseNextElig() {
	v := e.eligVer.Load()
	cur := e.nextElig.Load()
	m := uint64(clock.Never)
	for _, sd := range e.shards {
		if sd.downFlag.Load() {
			continue
		}
		if s := sd.minSend.Load(); s < m {
			m = s
		}
	}
	if m <= cur {
		return
	}
	if e.eligVer.Load() != v {
		return
	}
	e.nextElig.CompareAndSwap(cur, m)
}

// Enqueue implements backend.Backend. Producers mapped to different
// shards proceed in parallel; the only cross-shard coordination is two
// atomic counters (capacity reservation and the FIFO sequence). When the
// home shard is quarantined the entry probes forward to the next healthy
// shard (degraded-mode rehashing); core.ErrShardDown is returned only
// when every shard is down.
func (e *Engine) Enqueue(ent core.Entry) error {
	e.opTick()
	// Reserve a capacity slot first so the full/duplicate error
	// precedence matches a single list (full wins). Optimistic fetch-add
	// instead of a CAS loop: a racing overshoot is rolled straight back,
	// so the counter may transiently over-count (Len clamps it) but
	// occupancy never actually exceeds capacity.
	if e.size.Add(1) > int64(e.capacity) {
		e.size.Add(-1)
		return core.ErrFull
	}
	home := e.homeIdx(ent.ID)
	if e.degraded() && e.residentAway(ent.ID, home) {
		// The ID already lives off its home (or in a salvage): the home
		// shard's own duplicate check cannot see it, so reject here.
		e.size.Add(-1)
		return core.ErrDuplicate
	}
	// Draw the FIFO sequence outside the shard lock; a failed enqueue
	// burns it harmlessly (ties compare relative order, not density).
	// Two producers may take the lock in the opposite order to the one
	// they drew their sequences in; the list places equal ranks by the
	// stamped sequence, so global FIFO among equal ranks survives that.
	seq := e.seq.Add(1)
	k := len(e.shards)
	for probe := 0; probe < k; probe++ {
		i := (home + probe) % k
		sd := e.shards[i]
		if sd.downFlag.Load() {
			if e.salvageHas(sd, ent.ID) {
				e.size.Add(-1)
				return core.ErrDuplicate
			}
			continue
		}
		sd.mu.Lock()
		if sd.down {
			has := sd.salvageIDs != nil && mapHas(sd.salvageIDs, ent.ID)
			sd.mu.Unlock()
			if has {
				e.size.Add(-1)
				return core.ErrDuplicate
			}
			continue
		}
		var (
			started bool
			lerr    error
		)
		perr := e.protect(i, sd, OpEnqueue, func(l backend.ShardBackend) {
			// Pre-count the residency so a mid-insert panic charges the
			// ambiguous element to this shard; quarantine reconciles the
			// count against the salvage.
			started = true
			sd.resident++
			lerr = l.EnqueueSeq(ent, seq)
			if lerr != nil {
				sd.resident--
			}
		})
		if perr != nil {
			// The shard quarantined mid-operation. Whether the insert
			// landed is decided by the salvage: present and the list call
			// ran → treat as queued (the rebuild will restore it); present
			// without the list call running → it was already resident
			// (duplicate); absent → not inserted, probe onward.
			inSalvage := sd.salvageIDs != nil && mapHas(sd.salvageIDs, ent.ID)
			sd.mu.Unlock()
			if inSalvage {
				if started {
					// Queued: quarantine's salvage scan already folded this
					// entry into the residency and off-home accounting, and
					// the capacity slot reserved above stays held for it.
					return nil
				}
				e.size.Add(-1)
				return core.ErrDuplicate
			}
			if started {
				// The insert never landed but was pre-counted as resident,
				// so quarantine charged its reservation as a lost entry.
				// The arrival's fate belongs to this probe loop, not the
				// loss ledger: unwind the phantom loss (size, counter, and
				// event record) and probe onward.
				e.undoPhantomLoss(i)
			}
			continue
		}
		if lerr != nil {
			// Each shard list accepts up to the full shared capacity and a
			// slot was reserved above, so the shard cannot be full:
			// the only reachable failure is ErrDuplicate.
			sd.mu.Unlock()
			e.size.Add(-1)
			return lerr
		}
		sd.noteMutation(ent.SendTime)
		if i != home {
			sd.offHomeResident++
			e.offHome.Add(1)
		}
		sd.mu.Unlock()
		return nil
	}
	// Every shard is quarantined: the engine cannot accept traffic.
	e.size.Add(-1)
	return core.ErrShardDown
}

// candidate is a tournament entrant: the element a shard would yield,
// plus its global FIFO sequence.
type candidate struct {
	sd    *shard
	idx   int
	entry core.Entry
	seq   uint64
}

// tournament finds the winning shard for a filtered extraction: it prunes
// on the lock-free summaries, peeks the surviving shards in ascending
// summary-rank order under their own locks (never holding two at once),
// and keeps the best (rank, seq). Visiting likely winners first means the
// scan usually stops after one peek: once the best element's rank is at
// or below every remaining shard's minimum-rank bound, no remaining shard
// can beat it (equal bounds are still peeked — the FIFO sequence breaks
// the tie). When ranged is true the peek is the logical-PIEO [lo, hi]
// filter (§4.3).
//
// When budget > 0 and the first successful peek is already unbeatable —
// its rank strictly below every remaining shard's bound, so no tie-break
// can arise — elements are extracted under the peek's own lock and taken
// reports how many: the first extraction spares the caller a second
// lock/scan visit to the same shard (the common case: one shard holds the
// clear minimum), and the drain continues up to budget elements for as
// long as the shard's next eligible head still beats every remaining
// bound outright (strictly below — an equal bound could FIFO-tie, which
// only a fresh tournament can adjudicate). Extracted elements are
// appended to *sink when sink is non-nil; the first is also returned in
// c.entry, so single-element callers pass sink=nil and stay
// allocation-free. budget == 0 is a pure peek.
func (e *Engine) tournament(now clock.Time, lo, hi uint32, ranged bool, budget int, sink *[]core.Entry) (c candidate, found bool, taken int) {
	// Selection, not sort: the K summary bounds are snapshotted ONCE with
	// a single linear pass of atomic loads (fixed 64-byte stride over the
	// padded summaryRank array — a pattern the hardware prefetcher
	// streams), and each round then scans the LOCAL copy for the smallest
	// unvisited bound (tracking the runner-up as the drain limit),
	// overwriting a visited slot with emptyRank so it drops out of later
	// rounds. The tournament almost always ends after one probe (the next
	// bound can't beat it), so a full ordering would be wasted work — and
	// re-loading the atomics every round, as earlier revisions did, chains
	// each round's comparisons behind K fresh cache-coherent loads whose
	// lines producers are concurrently invalidating. The snapshot breaks
	// that dependency: rounds after the first race only against registers.
	// Staleness is already in the contract (a summary may be one mutation
	// stale; the probe re-validates under the shard lock), and quiescently
	// nothing mutates between rounds, so the snapshot is bit-exact there.
	// Probed shards are cleared the same way (bounds[mi] = emptyRank
	// before the probe), which also covers the down-between-read-and-lock
	// path. The minSend bound is read lazily
	// when a shard wins a round, so a dequeue loads K summary words once
	// plus one or two minSend words instead of 2K words per round
	// scattered across K shard structs.
	var (
		best   candidate
		bounds [maxShards]uint64
	)
	k := len(e.shards)
	ranks := e.minRanks
	for i := 0; i < k; i++ {
		bounds[i] = ranks[i].v.Load()
	}
	for {
		mi := -1          // shard index of the smallest remaining bound
		var mr uint64     // its bound
		next := emptyRank // second-smallest remaining bound: the drain limit
		for i := 0; i < k; i++ {
			r := bounds[i]
			if r == emptyRank {
				continue
			}
			if mi < 0 || r < mr {
				if mi >= 0 && mr < next {
					next = mr
				}
				mi, mr = i, r
			} else if r < next {
				next = r
			}
		}
		if mi < 0 {
			break
		}
		bounds[mi] = emptyRank
		// Ascending bounds: the first bound the best already beats ends
		// the tournament.
		if found && mr > best.entry.Rank {
			break
		}
		sd := e.shards[mi]
		// The lazily-read eligibility bound: a shard whose most optimistic
		// send time is still in the future cannot hold an eligible element
		// (minSend is a lower bound), so it is dropped without locking.
		if clock.Time(sd.minSend.Load()) > now {
			continue
		}
		var (
			ent  core.Entry
			sq   uint64
			elig bool
		)
		sd.mu.Lock()
		if sd.down {
			// Quarantined between the summary read and the lock.
			sd.mu.Unlock()
			continue
		}
		op := OpPeek
		if budget > 0 {
			op = OpDequeue
		}
		perr := e.protect(mi, sd, op, func(l backend.ShardBackend) {
			// The drain limit: extraction is fused into the probe when the
			// head is unbeatable — rank strictly below every remaining
			// shard's bound, so no FIFO tie can arise — and the probe
			// degrades to a pure peek (limit 0: no rank is below 0) when a
			// prior shard already produced a candidate.
			limit := uint64(0)
			if budget > 0 && !found {
				limit = next
			}
			var took bool
			if ranged {
				ent, sq, elig, took = l.DequeueRangeBelowSeq(now, lo, hi, limit)
			} else {
				ent, sq, elig, took = l.DequeueBelowSeq(now, limit)
			}
			if !elig {
				// The summary's lower bound let an ineligible shard
				// through; tighten it so the next tournament prunes it.
				sd.refreshMinSend()
				return
			}
			if !took {
				return
			}
			taken = 1
			c = candidate{sd: sd, idx: mi, entry: ent, seq: sq}
			e.noteExtracted(mi, sd, ent)
			if sink != nil {
				*sink = append(*sink, ent)
			}
			// Keep draining only while the shard's next eligible head
			// would win a rerun tournament outright (strictly below every
			// remaining bound — an equal bound could FIFO-tie, which only
			// a fresh tournament can adjudicate).
			for taken != budget {
				var (
					nent core.Entry
					ntk  bool
				)
				if ranged {
					nent, _, _, ntk = l.DequeueRangeBelowSeq(now, lo, hi, next)
				} else {
					nent, _, _, ntk = l.DequeueBelowSeq(now, next)
				}
				if !ntk {
					break
				}
				taken++
				e.noteExtracted(mi, sd, nent)
				if sink != nil {
					*sink = append(*sink, nent)
				}
			}
			sd.noteRemoval()
		})
		sd.mu.Unlock()
		if taken > 0 {
			// Entries already extracted stay extracted even if the shard
			// quarantined mid-drain: the salvage no longer holds them.
			e.size.Add(int64(-taken))
			return c, true, taken
		}
		if perr != nil || !elig {
			continue
		}
		if !found || ent.Rank < best.entry.Rank ||
			(ent.Rank == best.entry.Rank && sq < best.seq) {
			best = candidate{sd: sd, idx: mi, entry: ent, seq: sq}
			found = true
		}
	}
	return best, found, 0
}

// noteExtracted updates residency and off-home bookkeeping for an
// element extracted from shard i. Callers hold the shard lock.
func (e *Engine) noteExtracted(i int, sd *shard, ent core.Entry) {
	sd.resident--
	if e.homeIdx(ent.ID) != i {
		sd.offHomeResident--
		e.offHome.Add(-1)
	}
}

// extract removes the winning shard's current smallest-ranked eligible
// element via the list's own filtered dequeue datapath. Quiescently that
// is exactly the tournament candidate; under concurrency the shard's head
// may have changed since the peek, in which case the freshly-observed
// head is extracted instead (still eligible, still that shard's minimum —
// the bounded inexactness the package contract allows). It reports
// ok=false when concurrent consumers drained the shard's eligible
// elements entirely.
func (e *Engine) extract(idx int, sd *shard, now clock.Time, lo, hi uint32, ranged bool) (core.Entry, bool) {
	sd.mu.Lock()
	if sd.down {
		sd.mu.Unlock()
		return core.Entry{}, false
	}
	var (
		ent core.Entry
		ok  bool
	)
	perr := e.protect(idx, sd, OpDequeue, func(l backend.ShardBackend) {
		if ranged {
			ent, ok = l.DequeueRange(now, lo, hi)
		} else {
			ent, ok = l.Dequeue(now)
		}
		if !ok {
			sd.refreshMinSend()
			return
		}
		sd.resident--
		if e.homeIdx(ent.ID) != idx {
			sd.offHomeResident--
			e.offHome.Add(-1)
		}
		sd.noteRemoval()
	})
	sd.mu.Unlock()
	// ok=true means the list call itself completed: the element is out even
	// if a later step in the closure quarantined the shard (the salvage no
	// longer holds it), so it is delivered rather than dropped.
	_ = perr
	if !ok {
		return core.Entry{}, false
	}
	e.size.Add(-1)
	return ent, true
}

// Dequeue implements backend.Backend: extract the smallest-ranked
// eligible element across all shards (exact when quiescent; see the
// package comment for the concurrent contract).
func (e *Engine) Dequeue(now clock.Time) (core.Entry, bool) {
	e.opTick()
	if clock.Time(e.nextElig.Load()) > now {
		// Even the most optimistic queued element is in the future: the
		// O(1) empty fast path (no tournament, no locks).
		e.emptyDequeues.Add(1)
		return core.Entry{}, false
	}
	for attempt := 0; attempt < dequeueRetries; attempt++ {
		c, found, taken := e.tournament(now, 0, 0, false, 1, nil)
		if !found {
			// An exhaustive miss: no healthy shard holds an eligible
			// element, so the next-eligible bound can rise to what the
			// summaries now say. (A retry-exhausted miss below cannot
			// raise — eligible elements exist, consumers keep racing us
			// to them.)
			e.raiseNextElig()
			e.emptyDequeues.Add(1)
			return core.Entry{}, false
		}
		if taken > 0 {
			return c.entry, true
		}
		if ent, ok := e.extract(c.idx, c.sd, now, 0, 0, false); ok {
			return ent, true
		}
	}
	e.emptyDequeues.Add(1)
	return core.Entry{}, false
}

// DequeueRange implements backend.Backend: the logical-PIEO extraction
// (§4.3) run as a tournament of per-shard PeekRange results.
func (e *Engine) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	e.opTick()
	if clock.Time(e.nextElig.Load()) > now {
		// No element anywhere is eligible, in range or out of it.
		e.emptyDequeues.Add(1)
		return core.Entry{}, false
	}
	for attempt := 0; attempt < dequeueRetries; attempt++ {
		c, found, taken := e.tournament(now, lo, hi, true, 1, nil)
		if !found {
			// A ranged miss says nothing about elements outside [lo, hi],
			// but raiseNextElig recomputes from the send-time summaries
			// alone, so it is sound here too: if an eligible element
			// exists on any healthy shard, that shard's minSend bound
			// keeps the raise at or below now.
			e.raiseNextElig()
			e.emptyDequeues.Add(1)
			return core.Entry{}, false
		}
		if taken > 0 {
			return c.entry, true
		}
		if ent, ok := e.extract(c.idx, c.sd, now, lo, hi, true); ok {
			return ent, true
		}
	}
	e.emptyDequeues.Add(1)
	return core.Entry{}, false
}

// DequeueFlow implements backend.Backend: a point extraction that touches
// exactly one shard when the engine is healthy. In degraded mode the
// element may live away from its home (rehashed around a quarantine) or
// sit in a salvage; the lookup probes the home first and widens to the
// remaining shards only then. A salvaged element reports not-found — it
// is unavailable until its shard rebuilds — matching the contract that
// DequeueFlow on a missing ID is a no-op.
func (e *Engine) DequeueFlow(id uint32) (core.Entry, bool) {
	e.opTick()
	home := e.homeIdx(id)
	wide := e.degraded()
	k := len(e.shards)
	for probe := 0; probe < k; probe++ {
		i := (home + probe) % k
		sd := e.shards[i]
		sd.mu.Lock()
		if sd.down {
			has := sd.salvageIDs != nil && mapHas(sd.salvageIDs, id)
			sd.mu.Unlock()
			if has {
				return core.Entry{}, false
			}
			if !wide {
				return core.Entry{}, false
			}
			continue
		}
		var (
			ent core.Entry
			ok  bool
		)
		e.protect(i, sd, OpDequeueFlow, func(l backend.ShardBackend) {
			ent, ok = l.DequeueFlow(id)
			if !ok {
				return
			}
			sd.resident--
			if i != home {
				sd.offHomeResident--
				e.offHome.Add(-1)
			}
			sd.noteRemoval()
		})
		sd.mu.Unlock()
		if ok {
			e.size.Add(-1)
			return ent, true
		}
		if !wide {
			return core.Entry{}, false
		}
	}
	return core.Entry{}, false
}

// PeekMax implements backend.Evictor: the cross-shard push-out victim is
// the largest-(rank, seq) element over the healthy shards — a max
// tournament over per-shard MaxRankEntrySeq, the mirror image of the
// dequeue tournament's min over MinRank. Among equal maximal ranks the
// globally newest arrival (largest stamped sequence) wins, exactly as
// inside one list. Salvaged entries are invisible here: they cannot be
// extracted until their shard rebuilds (DequeueFlow's contract), and a
// victim PeekMax names must be one EvictMax can actually shed.
func (e *Engine) PeekMax() (core.Entry, bool) {
	ent, _, ok := e.peekMax()
	return ent, ok
}

func (e *Engine) peekMax() (best core.Entry, bestSeq uint64, ok bool) {
	for _, sd := range e.shards {
		if sd.downFlag.Load() {
			continue
		}
		sd.mu.Lock()
		if sd.down {
			sd.mu.Unlock()
			continue
		}
		ent, seq, has := sd.list.MaxRankEntrySeq()
		sd.mu.Unlock()
		if !has {
			continue
		}
		if !ok || ent.Rank > best.Rank || (ent.Rank == best.Rank && seq > bestSeq) {
			best, bestSeq, ok = ent, seq, true
		}
	}
	return best, bestSeq, ok
}

// EvictMax implements backend.Evictor: the victim identified by PeekMax
// is extracted through the engine's point-lookup datapath (DequeueFlow),
// which keeps the residency and conservation ledgers exact. Best-effort
// under concurrency: a victim extracted by a racing consumer between the
// tournament and the point lookup simply reports a miss.
func (e *Engine) EvictMax() (core.Entry, bool) {
	victim, _, ok := e.peekMax()
	if !ok {
		return core.Entry{}, false
	}
	return e.DequeueFlow(victim.ID)
}

// Peek implements backend.Peeker via the tournament, without extraction.
func (e *Engine) Peek(now clock.Time) (core.Entry, bool) {
	if clock.Time(e.nextElig.Load()) > now {
		return core.Entry{}, false
	}
	c, found, _ := e.tournament(now, 0, 0, false, 0, nil)
	return c.entry, found
}

// PeekRange implements backend.Peeker.
func (e *Engine) PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	if clock.Time(e.nextElig.Load()) > now {
		return core.Entry{}, false
	}
	c, found, _ := e.tournament(now, lo, hi, true, 0, nil)
	return c.entry, found
}

// UpdateRank implements backend.RankUpdater: the dequeue(f)+enqueue(f)
// fusion stays atomic because the element's shard holds both halves under
// one lock. Re-ranking resets the element's FIFO position from the global
// sequence, exactly as it does inside core.List. In degraded mode the
// lookup widens past the home shard like DequeueFlow; a salvaged element
// reports false (unavailable until rebuild).
func (e *Engine) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	e.opTick()
	seq := e.seq.Add(1)
	home := e.homeIdx(id)
	wide := e.degraded()
	k := len(e.shards)
	for probe := 0; probe < k; probe++ {
		i := (home + probe) % k
		sd := e.shards[i]
		sd.mu.Lock()
		if sd.down {
			sd.mu.Unlock()
			if !wide {
				return false
			}
			continue
		}
		var ok bool
		perr := e.protect(i, sd, OpUpdateRank, func(l backend.ShardBackend) {
			ok = l.UpdateRankSeq(id, rank, sendTime, seq)
			if ok {
				sd.noteMutation(sendTime)
			}
		})
		sd.mu.Unlock()
		if perr != nil {
			// Mid-op quarantine: the element (in whichever rank state the
			// panic left it) is in the salvage and unavailable.
			return false
		}
		if ok {
			e.updateRanks.Add(1)
			return true
		}
		if !wide {
			return false
		}
	}
	return false
}

// Len implements backend.Backend from the global occupancy counter. The
// counter also holds the optimistic slot reservations of enqueues about
// to be refused as full (see Enqueue), so it is clamped: occupancy never
// exceeds capacity, whatever a concurrent reader catches in flight.
func (e *Engine) Len() int { return min(int(e.size.Load()), e.capacity) }

// Contains implements backend.Backend. Salvaged elements count as present
// — they are queued, just temporarily unreachable — so idempotent
// re-enqueue checks in the scheduler layers do not double-admit a flow
// whose shard is mid-rebuild. In degraded mode the lookup widens past the
// home shard.
func (e *Engine) Contains(id uint32) bool {
	home := e.homeIdx(id)
	wide := e.degraded()
	k := len(e.shards)
	for probe := 0; probe < k; probe++ {
		i := (home + probe) % k
		sd := e.shards[i]
		sd.mu.Lock()
		var has bool
		if sd.down {
			has = sd.salvageIDs != nil && mapHas(sd.salvageIDs, id)
		} else {
			has = sd.list.Contains(id)
		}
		down := sd.down
		sd.mu.Unlock()
		if has {
			return true
		}
		if !wide && !down {
			return false
		}
	}
	return false
}

// MinSendTime implements backend.Backend exactly, computing each shard's
// minimum under its lock (the atomic minSend is only a pruning bound: a
// shard whose bound already loses to the best exact value found so far
// cannot improve it and is skipped without locking). Consumers use this
// for wake hints on the idle path, so it trades per-call cost for keeping
// the mutation paths O(1).
func (e *Engine) MinSendTime() (clock.Time, bool) {
	minT := clock.Never
	found := false
	for _, sd := range e.shards {
		if !sd.downFlag.Load() {
			// Quarantined shards publish an empty summary, so the pruning
			// checks below would skip their salvaged entries — which still
			// need to contribute wake hints. Only healthy shards may prune.
			if sd.minRank.Load() == emptyRank {
				continue
			}
			if found && clock.Time(sd.minSend.Load()) >= minT {
				continue
			}
		}
		sd.mu.Lock()
		if sd.down {
			for i := range sd.salvaged {
				if t := sd.salvaged[i].SendTime; !found || t < minT {
					minT = t
					found = true
				}
			}
			sd.mu.Unlock()
			continue
		}
		t, ok := sd.list.MinSendTime()
		if ok {
			// Tighten the pruning bound while the exact value is in hand.
			sd.minSend.Store(uint64(t))
		}
		sd.mu.Unlock()
		if ok && (!found || t < minT) {
			minT = t
			found = true
		}
	}
	return minT, found
}

// NextWakeAfter implements backend.EligIndexed across the shard set: the
// exact smallest send_time strictly greater than now among elements
// queued in healthy shards, clock.Never when there is none. Down shards
// are skipped — their salvaged entries are not dequeueable until
// rebuild, so waking for them would find nothing; the rebuild
// re-tightens nextElig when it installs the fresh list. Like MinSendTime
// this is an idle-path query: each shard answers under its lock (from its
// index when it has one, a snapshot scan otherwise), with the lock-free
// minSend bound pruning shards that cannot beat the best value in hand
// (every resident send_time is >= the bound, so the wake is too).
func (e *Engine) NextWakeAfter(now clock.Time) clock.Time {
	best := clock.Never
	for _, sd := range e.shards {
		if !sd.downFlag.Load() {
			if sd.minRank.Load() == emptyRank {
				continue
			}
			if clock.Time(sd.minSend.Load()) >= best {
				continue
			}
		}
		sd.mu.Lock()
		if sd.down {
			sd.mu.Unlock()
			continue
		}
		var t clock.Time
		if sd.idx != nil {
			t = sd.idx.NextWakeAfter(now)
		} else {
			t = clock.Never
			for _, ent := range sd.list.Snapshot() {
				if ent.SendTime > now && ent.SendTime < t {
					t = ent.SendTime
				}
			}
		}
		sd.mu.Unlock()
		if t < best {
			best = t
		}
	}
	return best
}

// EligIndexActive implements backend.EligIndexed: true when every
// healthy shard's list carries a live eligibility index and the engine
// has not been asked to drop it. NextWakeAfter answers exactly either
// way (the unindexed path scans); the flag tells consumers which regime
// produced the answer.
func (e *Engine) EligIndexActive() bool {
	if e.eligOff.Load() {
		return false
	}
	for _, sd := range e.shards {
		sd.mu.Lock()
		ok := sd.down || sd.exact
		sd.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// DisableEligIndex implements backend.EligIndexed: asks every shard's
// list to drop its index (cffs drops its wheel; core has one path and
// keeps it) and latches the engine so quarantine rebuilds do the same.
// The per-shard minSend summaries revert to the stale-low-bound regime
// either way.
func (e *Engine) DisableEligIndex() {
	e.eligOff.Store(true)
	for _, sd := range e.shards {
		sd.mu.Lock()
		if sd.idx != nil {
			sd.idx.DisableEligIndex()
			sd.exact = false
		}
		sd.mu.Unlock()
	}
}

// Snapshot implements backend.Backend: a global (rank, FIFO) merge of the
// per-shard snapshots, exact when quiescent. Shards are locked one at a
// time, so a concurrent mutation may straddle the cut.
func (e *Engine) Snapshot() []core.Entry {
	type seqEntry struct {
		entry core.Entry
		seq   uint64
	}
	all := make([]seqEntry, 0, e.Len())
	for _, sd := range e.shards {
		sd.mu.Lock()
		var (
			ents []core.Entry
			seqs []uint64
		)
		if sd.down {
			// Salvaged entries are still queued; they appear in the global
			// view even while their shard rebuilds.
			ents, seqs = sd.salvaged, sd.salvagedSeqs
		} else {
			ents, seqs = sd.list.SnapshotWithSeq()
		}
		for i := range ents {
			all = append(all, seqEntry{entry: ents[i], seq: seqs[i]})
		}
		sd.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].entry.Rank != all[j].entry.Rank {
			return all[i].entry.Rank < all[j].entry.Rank
		}
		return all[i].seq < all[j].seq
	})
	out := make([]core.Entry, len(all))
	for i, se := range all {
		out[i] = se.entry
	}
	return out
}

// Stats implements backend.Backend by summing the per-shard list
// counters (every engine operation maps 1:1 onto exactly one successful
// list operation), so the hot paths carry no engine-level stat atomics.
// UpdateRank runs as a list-level flow-dequeue + re-enqueue pair, so its
// count is subtracted back out of both; EmptyDequeues is engine-level
// (a tournament that finds nothing touches no list datapath).
func (e *Engine) Stats() backend.Stats {
	hw := e.HardwareStats()
	ur := e.updateRanks.Load()
	return backend.Stats{
		Enqueues:      hw.Enqueues - ur,
		Dequeues:      hw.Dequeues,
		EmptyDequeues: e.emptyDequeues.Load(),
		FlowDequeues:  hw.FlowDequeues - ur,
		RangeDequeues: hw.RangeDequeues,
	}
}

// SetCombining implements backend.Combining as a no-op. Inert: the
// engine has no rings; removed with the benchmark's three ring rows
// (ROADMAP item 1).
func (e *Engine) SetCombining(bool) {}

// CombiningEnabled implements backend.Combining and is always false.
// Inert: the engine has no rings; removed with the benchmark's three
// ring rows (ROADMAP item 1).
func (e *Engine) CombiningEnabled() bool { return false }

// CombiningStats implements backend.Combining and is always zero. Inert:
// the engine has no rings; removed with the benchmark's three ring rows
// (ROADMAP item 1).
func (e *Engine) CombiningStats() backend.CombiningStats { return backend.CombiningStats{} }

// HardwareStats implements backend.HardwareModeled by summing the §5
// datapath counters across shards — the cost of K physical PIEOs, which
// is exactly how the paper accounts multi-PIEO scaling. Counters survive
// quarantine: each shard carries the totals of its dead incarnations in
// statsBase (rebuild replay work is subtracted back out so the sum stays
// the engine's real operation history).
func (e *Engine) HardwareStats() core.Stats {
	var total core.Stats
	for _, sd := range e.shards {
		sd.mu.Lock()
		addStats(&total, sd.statsBase)
		if !sd.down {
			addStats(&total, sd.list.Stats())
		}
		sd.mu.Unlock()
	}
	return total
}

// addStats accumulates s into dst field-by-field (core.Stats has no Add of
// its own — the hardware counters are normally read, not merged).
func addStats(dst *core.Stats, s core.Stats) {
	dst.Enqueues += s.Enqueues
	dst.Dequeues += s.Dequeues
	dst.EmptyDequeues += s.EmptyDequeues
	dst.FlowDequeues += s.FlowDequeues
	dst.RangeDequeues += s.RangeDequeues
	dst.Cycles += s.Cycles
	dst.SublistReads += s.SublistReads
	dst.SublistWrites += s.SublistWrites
	dst.PtrCompares += s.PtrCompares
	dst.ElemCompares += s.ElemCompares
}

// subStats subtracts s from dst; uint64 wraparound on intermediate values
// is fine because sums re-add the same quantities.
func subStats(dst *core.Stats, s core.Stats) {
	dst.Enqueues -= s.Enqueues
	dst.Dequeues -= s.Dequeues
	dst.EmptyDequeues -= s.EmptyDequeues
	dst.FlowDequeues -= s.FlowDequeues
	dst.RangeDequeues -= s.RangeDequeues
	dst.Cycles -= s.Cycles
	dst.SublistReads -= s.SublistReads
	dst.SublistWrites -= s.SublistWrites
	dst.PtrCompares -= s.PtrCompares
	dst.ElemCompares -= s.ElemCompares
}

// CheckInvariants validates the engine-level structure on top of each
// shard's own §5 invariants: ID uniqueness across the engine, residency
// and off-home accounting, summary coherence, quarantine bookkeeping, and
// the global size counter. Entries may legitimately live away from their
// hash-home shard after degraded-mode rehashing; each such entry must be
// reflected in the offHome counter. Tests call it after mutations; it
// must be called quiescently.
func (e *Engine) CheckInvariants() error {
	total := 0
	offHome := 0
	down := 0
	halfOpen := 0
	healthyMinSend := clock.Never
	seen := make(map[uint32]int, e.Len())
	for i, sd := range e.shards {
		sd.mu.Lock()
		err := func() error {
			// Breaker-phase coherence: down ⟺ Open; an up shard is Closed
			// or serving its half-open probation.
			switch phase := sd.brk.Phase(); {
			case sd.down && phase != backend.BreakerOpen:
				return fmt.Errorf("shard %d: down but breaker phase %v", i, phase)
			case !sd.down && phase == backend.BreakerOpen:
				return fmt.Errorf("shard %d: up but breaker phase %v", i, phase)
			case phase == backend.BreakerHalfOpen:
				halfOpen++
			}
			checkIDs := func(ents []core.Entry) error {
				off := 0
				for _, ent := range ents {
					if prev, dup := seen[ent.ID]; dup {
						return fmt.Errorf("id %d present on shards %d and %d", ent.ID, prev, i)
					}
					seen[ent.ID] = i
					if e.homeIdx(ent.ID) != i {
						off++
					}
				}
				if off != sd.offHomeResident {
					return fmt.Errorf("shard %d: %d entries live off-home, shard counter says %d", i, off, sd.offHomeResident)
				}
				offHome += off
				return nil
			}
			if sd.down {
				down++
				if sd.list != nil {
					return fmt.Errorf("shard %d: down but a list is still installed", i)
				}
				if len(sd.salvaged) != len(sd.salvagedSeqs) || len(sd.salvaged) != len(sd.salvageIDs) {
					return fmt.Errorf("shard %d: salvage bookkeeping inconsistent (%d entries, %d seqs, %d ids)",
						i, len(sd.salvaged), len(sd.salvagedSeqs), len(sd.salvageIDs))
				}
				if sd.minRank.Load() != emptyRank {
					return fmt.Errorf("shard %d: down but summary minRank %d", i, sd.minRank.Load())
				}
				if sd.resident != len(sd.salvaged) {
					return fmt.Errorf("shard %d: resident count %d, salvage holds %d", i, sd.resident, len(sd.salvaged))
				}
				if err := checkIDs(sd.salvaged); err != nil {
					return err
				}
				total += len(sd.salvaged)
				return nil
			}
			if err := sd.list.CheckInvariants(); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if err := checkIDs(sd.list.Snapshot()); err != nil {
				return err
			}
			if sd.resident != sd.list.Len() {
				return fmt.Errorf("shard %d: resident count %d, list holds %d", i, sd.resident, sd.list.Len())
			}
			if r, ok := sd.list.MinRank(); ok {
				if r == emptyRank {
					r--
				}
				if sd.minRank.Load() != r {
					return fmt.Errorf("shard %d: summary minRank %d, list %d", i, sd.minRank.Load(), r)
				}
			} else if sd.minRank.Load() != emptyRank {
				return fmt.Errorf("shard %d: empty but summary minRank %d", i, sd.minRank.Load())
			}
			if t, ok := sd.list.MinSendTime(); ok {
				if bound := clock.Time(sd.minSend.Load()); bound > t {
					return fmt.Errorf("shard %d: minSend bound %v above true min %v", i, bound, t)
				} else if sd.exact && bound != t {
					// Indexed shards refresh exactly on every
					// mutation; a stale-low bound here means a mutation
					// path skipped noteMutation/noteRemoval.
					return fmt.Errorf("shard %d: indexed minSend %v, true min %v", i, bound, t)
				}
				if t < healthyMinSend {
					healthyMinSend = t
				}
			} else if clock.Time(sd.minSend.Load()) != clock.Never {
				return fmt.Errorf("shard %d: empty but minSend bound %v", i, clock.Time(sd.minSend.Load()))
			}
			total += sd.list.Len()
			return nil
		}()
		sd.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if total != e.Len() {
		return fmt.Errorf("shards hold %d elements, size counter says %d", total, e.Len())
	}
	if offHome != int(e.offHome.Load()) {
		return fmt.Errorf("%d entries live off their home shard, offHome counter says %d", offHome, e.offHome.Load())
	}
	if down != int(e.downShards.Load()) {
		return fmt.Errorf("%d shards are down, downShards counter says %d", down, e.downShards.Load())
	}
	if halfOpen != int(e.probation.Load()) {
		return fmt.Errorf("%d shards are half-open, probation counter says %d", halfOpen, e.probation.Load())
	}
	// The next-eligible index must stay a lower bound on the send times
	// actually dequeueable — elements in healthy shards. (Salvaged entries
	// may legitimately sit below a raised bound: they are unreachable
	// until rebuild, which re-tightens.)
	if ne := clock.Time(e.nextElig.Load()); ne > healthyMinSend {
		return fmt.Errorf("next-eligible bound %v above true healthy min send %v", ne, healthyMinSend)
	}
	return nil
}

var (
	_ backend.Evictor   = (*Engine)(nil)
	_ backend.Combining = (*Engine)(nil)
)

func init() {
	backend.Register("sharded", func(n int) backend.Backend { return New(n, DefaultShards) })
	// Every registered shard backend is also reachable as a top-level
	// backend "sharded+<name>" — the engine inherits each backend's
	// speedup for free, and the registry-wide suites (invariants,
	// differential) cover every combination automatically. "sharded" is
	// the core combination, so it is not repeated as "sharded+core".
	for _, name := range backend.ShardNames() {
		if name == "core" {
			continue
		}
		name := name
		backend.Register("sharded+"+name, func(n int) backend.Backend {
			e, err := NewNamed(n, DefaultShards, name)
			if err != nil {
				panic(err)
			}
			return e
		})
	}
}
