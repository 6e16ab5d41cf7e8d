// Package backend defines the pluggable ordered-list contract every PIEO
// consumer programs against. The paper scales past a single physical list
// by instantiating "multiple physical PIEOs" and partitioning flows across
// them (§4.3); related designs trade exactness for throughput with bucketed
// or approximate list organizations (Eiffel's FFS-based queues, RIFO).
// Pinning every layer of this repo to *core.List would make each such
// organization a cross-cutting rewrite, so the scheduler framework
// (internal/sched), the hierarchy (internal/hier), the concurrency wrappers
// (SyncList, internal/shard), and the tools all speak this interface
// instead and any backend can drive the full §3.2 programming framework.
//
// The contract is the PIEO operation set of §3.1:
//
//   - Enqueue ("Push-In"): insert at the rank position, FIFO among equal
//     ranks, ErrFull at capacity, ErrDuplicate for a queued ID.
//   - Dequeue ("Extract-Out"): remove the smallest-ranked element whose
//     eligibility predicate (send_time <= now) holds.
//   - DequeueFlow (dequeue(f)): remove a specific element regardless of
//     eligibility — the asynchronous alarm path of §4.4.
//   - DequeueRange: Extract-Out restricted to IDs in [lo, hi] — the
//     logical-PIEO extraction hierarchical scheduling builds on (§4.3).
//
// Every registered backend (core.List, the sharded engine when quiescent,
// the reference model) implements the contract bit-for-bit and is
// differentially tested against internal/refmodel; the inexact baselines
// (internal/pifo, internal/approx) stay outside it and are driven directly
// by the experiments that measure them. Optional capabilities — peeking,
// atomic re-ranking, invariant checking, hardware cost counters — are
// expressed as extension interfaces so consumers degrade gracefully.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// Stats is the backend-independent operation summary. Unlike core.Stats it
// carries no hardware-model counters (cycles, SRAM ports) — those stay
// specific to backends that model a datapath and are reachable through the
// HardwareModeled extension.
type Stats struct {
	Enqueues      uint64
	Dequeues      uint64 // successful Dequeue
	EmptyDequeues uint64 // Dequeue that found no eligible element
	FlowDequeues  uint64 // successful DequeueFlow
	RangeDequeues uint64 // successful DequeueRange

	// RingOps and CombinedOps are always zero. Inert: the engine has no
	// rings; removed with the benchmark's three ring rows (ROADMAP item 1).
	RingOps     uint64
	CombinedOps uint64
}

// Add accumulates other into s, for aggregating per-shard counters.
func (s *Stats) Add(other Stats) {
	s.Enqueues += other.Enqueues
	s.Dequeues += other.Dequeues
	s.EmptyDequeues += other.EmptyDequeues
	s.FlowDequeues += other.FlowDequeues
	s.RangeDequeues += other.RangeDequeues
}

// Backend is the ordered-list contract of §3.1 plus the queries the
// scheduler framework needs (Contains for idempotent re-enqueue,
// MinSendTime for WF²Q+ virtual-time updates and wake hints, Snapshot for
// tests and reporting).
type Backend interface {
	// Enqueue inserts e at its rank position (FIFO among equal ranks).
	// It returns core.ErrFull at capacity and core.ErrDuplicate when
	// e.ID is already queued.
	Enqueue(e core.Entry) error
	// Dequeue extracts the smallest-ranked element eligible at now.
	Dequeue(now clock.Time) (core.Entry, bool)
	// DequeueFlow extracts the element with the given id regardless of
	// eligibility.
	DequeueFlow(id uint32) (core.Entry, bool)
	// DequeueRange extracts the smallest-ranked element eligible at now
	// whose ID lies in [lo, hi].
	DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool)
	// Len returns the number of queued elements.
	Len() int
	// Contains reports whether id is currently queued.
	Contains(id uint32) bool
	// MinSendTime returns the smallest send_time across queued elements;
	// ok is false when the backend is empty.
	MinSendTime() (clock.Time, bool)
	// Snapshot returns every queued entry in increasing (rank, FIFO)
	// order.
	Snapshot() []core.Entry
	// Stats returns the accumulated operation counters.
	Stats() Stats
}

// Peeker is implemented by backends that can report what Dequeue or
// DequeueRange would extract without removing it.
type Peeker interface {
	Peek(now clock.Time) (core.Entry, bool)
	PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool)
}

// RankUpdater is implemented by backends that can atomically re-rank a
// queued element — the dequeue(f)+enqueue(f) pattern of §3.1 fused into
// one operation so concurrent readers never observe the element missing.
type RankUpdater interface {
	UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool
}

// RankRanger is implemented by backends that additionally support the §8
// dictionary queries — successor lookup by rank and destructive
// extraction within a rank interval. core.List provides both.
type RankRanger interface {
	Backend
	MinRankAtLeast(lo uint64) (core.Entry, bool)
	DequeueRankRange(lo, hi uint64) (core.Entry, bool)
}

// EligIndexed is implemented by backends that keep an exact index over
// send_time and so can answer "when does the next currently-ineligible
// element become eligible" without scanning their elements. core.List
// reads the Ordered-Sublist-Array's own eligibility summaries. The
// sharded engine uses the capability to keep per-shard minSend summaries
// exact after every mutation (including removals) and to publish exact
// nextElig bounds; netsim's wake hinting uses it to sleep to the precise
// next release.
//
// EligIndexActive and DisableEligIndex are inert on every backend: the
// index is the list's own structure, so it is always active and there is
// nothing to drop. They remain only because the benchmark's tracing
// wrapper forwards them.
type EligIndexed interface {
	// NextWakeAfter returns the exact smallest send_time strictly
	// greater than now among queued elements, or clock.Never when no
	// such element exists. Elements already eligible at now do not
	// contribute: the caller polls Dequeue for those.
	NextWakeAfter(now clock.Time) clock.Time
	// EligIndexActive reports whether the index is live, which also
	// promises a cheap exact MinSendTime. Every registered backend that
	// implements the capability reports true.
	EligIndexActive() bool
	// DisableEligIndex is a no-op on every backend.
	DisableEligIndex()
}

// NextWakeAfter consults b's eligibility index, reporting ok=false when
// b does not implement the capability.
func NextWakeAfter(b Backend, now clock.Time) (clock.Time, bool) {
	if ix, ok := b.(EligIndexed); ok {
		return ix.NextWakeAfter(now), true
	}
	return 0, false
}

// InvariantChecker is implemented by backends with internal structure
// worth validating after mutations (the sublist geometry of core.List,
// the shard partitioning of internal/shard).
type InvariantChecker interface {
	CheckInvariants() error
}

// HardwareModeled is implemented by backends that model a hardware
// datapath and count its work in core.Stats terms.
type HardwareModeled interface {
	HardwareStats() core.Stats
}

// CombiningStats is what Combining reports: always zero. Inert: the
// engine has no rings; removed with the benchmark's three ring rows
// (ROADMAP item 1).
type CombiningStats struct {
	RingOps        uint64
	CombinedOps    uint64
	CombinerDrains uint64
}

// Combining is the sharded engine's former flat-combining knob: a no-op
// setter, a false getter and zero counters. Inert: the engine has no
// rings; removed with the benchmark's three ring rows (ROADMAP item 1).
type Combining interface {
	SetCombining(on bool)
	CombiningEnabled() bool
	CombiningStats() CombiningStats
}

// CheckInvariants validates b's internal structure when it supports
// checking, and reports nil otherwise.
func CheckInvariants(b Backend) error {
	if c, ok := b.(InvariantChecker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// UpdateRank atomically re-ranks id on backends that support it; on other
// backends it falls back to DequeueFlow + Enqueue (not atomic with respect
// to concurrent readers, which is fine for single-threaded consumers).
// When the re-enqueue half fails (an injected fault, or a concurrent
// producer stealing the freed slot on a racy backend), the dequeued
// element is restored with its original attributes and the failure is
// returned as an error instead of panicking; the element is lost only if
// the restore fails too, and the error says so explicitly.
func UpdateRank(b Backend, id uint32, rank uint64, sendTime clock.Time) (bool, error) {
	if u, ok := b.(RankUpdater); ok {
		return u.UpdateRank(id, rank, sendTime), nil
	}
	orig, ok := b.DequeueFlow(id)
	if !ok {
		return false, nil
	}
	e := orig
	e.Rank = rank
	e.SendTime = sendTime
	if err := b.Enqueue(e); err != nil {
		if rerr := b.Enqueue(orig); rerr != nil {
			return false, fmt.Errorf(
				"backend: UpdateRank re-enqueue failed (%w) and restore of %d failed (%v): element lost", err, id, rerr)
		}
		return false, fmt.Errorf("backend: UpdateRank re-enqueue failed: %w", err)
	}
	return true, nil
}

// --- Registry ---
//
// Backends register a constructor under a short name so tools (pieosim
// -backend, the differential harness) can be parameterized without linking
// package identities into every consumer. Registration happens in init
// functions; internal/shard registers itself, so a caller that wants the
// sharded engine available must import it (the facade does).

var (
	regMu    sync.RWMutex
	registry = map[string]func(capacity int) Backend{}
)

// Register binds name to a constructor. It panics on duplicates: two
// packages claiming one name is a wiring bug.
func Register(name string, factory func(capacity int) Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: %q registered twice", name))
	}
	registry[name] = factory
}

// New constructs the backend registered under name with the given
// capacity.
func New(name string, capacity int) (Backend, error) {
	regMu.RLock()
	factory := registry[name]
	regMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
	return factory(capacity), nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
