// Package backend defines the pluggable ordered-list contract every PIEO
// consumer programs against. The paper scales past a single physical list
// by instantiating "multiple physical PIEOs" and partitioning flows across
// them (§4.3); related designs trade exactness for throughput with bucketed
// or approximate list organizations (Eiffel's FFS-based queues, RIFO).
// Pinning every layer of this repo to *core.List would make each such
// organization a cross-cutting rewrite, so the scheduler framework
// (internal/sched), the hierarchy (internal/hier), the locked list
// (SyncList, in internal/shard), and the tools all speak this interface
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
//   - UpdateRank: dequeue(f) followed by enqueue(f) with a new rank and
//     send_time, the §3.1 re-rank pattern.
//
// plus the queries and the push-out victim every consumer needs. Backend is
// the whole contract: every list implements all of it bit-for-bit, so
// adding a backend means implementing this one interface. One conformance
// suite, internal/refmodel/conform, holds each to the reference model
// (internal/refmodel): core.List at sublist sizes 2, 3, 6 and ⌈√N⌉, the
// reference model itself, SyncList (one lock around core.List) with its
// batch path (also two programs at once on disjoint ID ranges), and the
// fault-injection wrapper with an empty plan. Only two capabilities stay
// optional, because one backend cannot answer them honestly:
// HardwareModeled (the reference model has no datapath) and Batcher (a
// native batch path; the EnqueueBatch/DequeueUpTo helpers loop otherwise).
// The inexact baselines (internal/pifo, internal/approx) stay outside the
// contract and are driven directly by the experiments that measure them.
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
	EmptyDequeues uint64 // Dequeue or DequeueRange that found no eligible element
	FlowDequeues  uint64 // successful DequeueFlow
	RangeDequeues uint64 // successful DequeueRange

	// RingOps and CombinedOps are always zero. Inert: the engine has no
	// rings; removed with the benchmark's three ring rows (ROADMAP item 1).
	RingOps     uint64
	CombinedOps uint64
}

// Add accumulates other into s, for aggregating per-level counters.
func (s *Stats) Add(other Stats) {
	s.Enqueues += other.Enqueues
	s.Dequeues += other.Dequeues
	s.EmptyDequeues += other.EmptyDequeues
	s.FlowDequeues += other.FlowDequeues
	s.RangeDequeues += other.RangeDequeues
}

// Backend is the ordered-list contract of §3.1 plus the queries the
// scheduler framework needs (Contains for idempotent re-enqueue,
// MinSendTime for WF²Q+ virtual-time updates, NextWakeAfter for wake
// hints, Snapshot for tests and reporting), the push-out victim of the
// admission policy (Evictor) and a structural self-check.
type Backend interface {
	RankUpdater
	Evictor
	InvariantChecker

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
	// NextWakeAfter returns the exact smallest send_time strictly
	// greater than now among queued elements, or clock.Never when no
	// such element exists. Elements already eligible at now do not
	// contribute: the caller polls Dequeue for those.
	NextWakeAfter(now clock.Time) clock.Time
	// Snapshot returns every queued entry in increasing (rank, FIFO)
	// order.
	Snapshot() []core.Entry
	// Stats returns the accumulated operation counters.
	Stats() Stats
}

// Peeker is implemented by backends that can report what Dequeue or
// DequeueRange would extract without removing it. No production code
// asks for it; it stays declared because the benchmark's tracing wrapper
// forwards it.
type Peeker interface {
	Peek(now clock.Time) (core.Entry, bool)
	PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool)
}

// RankUpdater is the re-rank part of Backend: the dequeue(f)+enqueue(f)
// pattern of §3.1 as one operation, so concurrent readers of a locked
// list never observe the element missing. The re-enqueued
// element takes a fresh FIFO position among its new equal ranks. ok is
// false when id is not queued.
type RankUpdater interface {
	UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool
}

// RankRanger is implemented by backends that additionally support the §8
// dictionary queries — successor lookup by rank and destructive
// extraction within a rank interval. core.List provides both; the
// dictionary builds on *core.List directly, so only the benchmark's
// tracing wrapper names this interface.
type RankRanger interface {
	Backend
	MinRankAtLeast(lo uint64) (core.Entry, bool)
	DequeueRankRange(lo, hi uint64) (core.Entry, bool)
}

// EligIndexed adds EligIndexActive and DisableEligIndex to Backend's
// NextWakeAfter. Both are inert on core.List and SyncList,
// whose eligibility index is the Ordered-Sublist-Array's own summaries
// and so always live. No production code asks for it; it stays declared
// because the benchmark names it.
type EligIndexed interface {
	NextWakeAfter(now clock.Time) clock.Time
	// EligIndexActive reports whether the index is live, which also
	// promises a cheap exact MinSendTime. Every registered backend that
	// implements the capability reports true.
	EligIndexActive() bool
	// DisableEligIndex is a no-op on every backend.
	DisableEligIndex()
}

// InvariantChecker is the self-check part of Backend: it validates the
// internal structure after mutations (the sublist geometry of core.List)
// and reports nil on a
// structure with nothing to check (the flat reference model).
type InvariantChecker interface {
	CheckInvariants() error
}

// HardwareModeled is implemented by backends that model a hardware
// datapath and count its work in core.Stats terms. It is optional
// because the reference model has no datapath to count.
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

// Combining is the K-lock engine's former flat-combining knob: a no-op
// setter, a false getter and zero counters. Inert: the engine has no
// rings; removed with the benchmark's three ring rows (ROADMAP item 1).
type Combining interface {
	SetCombining(on bool)
	CombiningEnabled() bool
	CombiningStats() CombiningStats
}

// --- Registry ---
//
// Backends register a constructor under a short name so tools (pieosim
// -backend, the differential harness) can be parameterized without linking
// package identities into every consumer. Registration happens in init
// functions: this package registers "core" and internal/refmodel
// registers "ref", so a caller that wants "ref" available must import
// it (the facade does). The locked list is not registered: callers
// build it with pieo.NewSyncList.

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
