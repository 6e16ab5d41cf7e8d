// Package pieo is a Go implementation of PIEO (Push-In-Extract-Out), the
// programmable packet scheduling primitive of "Fast, Scalable, and
// Programmable Packet Scheduler in Hardware" (Vishal Shrivastav, SIGCOMM
// 2019), together with the scheduler framework, algorithm catalogue,
// hierarchical composition, hardware cost model, and evaluation harness
// that reproduce the paper.
//
// A PIEO list keeps elements ordered by a programmable rank and attaches
// to each element an eligibility predicate encoded as a send time; a
// dequeue extracts the smallest-ranked element whose predicate holds
// ("schedule the smallest ranked eligible element"). Unlike a PIFO
// priority queue, which can only pop its head, PIEO can dequeue from
// arbitrary positions via the predicate filter — which is exactly what
// algorithms such as WF²Q+ and all non-work-conserving shapers need.
//
// The package re-exports the core types so applications depend only on
// the module root:
//
//	l := pieo.NewList(1024)
//	l.Enqueue(pieo.Entry{ID: 7, Rank: 42, SendTime: 1000})
//	e, ok := l.Dequeue(now) // smallest-ranked eligible element
//
// Every ordered list — List through NewBackend, and SyncList (also
// named ShardedList) — implements the one Backend contract in full, so
// code written against Backend runs unchanged on any of them; only
// HardwareModeled and Batcher are optional. The facade exports what the tools, examples and
// README use.
//
// Higher layers:
//
//   - NewScheduler + a Program (DRR, WFQ, WF2Q, TokenBucket, …) runs the
//     §3.2 programming framework over per-flow FIFO queues.
//   - NewHierarchy composes per-node policies into the §4.3 multi-level
//     scheduler (e.g. per-VM rate limits with per-flow fair queueing).
//   - NewSim drives any scheduler on a simulated link at nanosecond
//     granularity.
//
// The paper's tables and figures are regenerated by cmd/pieobench.
package pieo

import (
	"fmt"

	"pieo/internal/algos"
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/netsim"
	"pieo/internal/policy"
	"pieo/internal/sched"
	"pieo/internal/shard"
	"pieo/internal/wire"

	// Linked for its backend registration only: keeps the flat executable
	// spec selectable as "ref" wherever the facade's registry is used
	// (NewBackend, pieosim -backend), not just in the test binaries that
	// import it directly.
	_ "pieo/internal/refmodel"
)

// Core list types (§3.1, §5).
type (
	// Time is an opaque monotonic tick; algorithms choose the unit.
	Time = clock.Time
	// Entry is one element of a PIEO ordered list.
	Entry = core.Entry
	// List is the PIEO ordered list, implemented with the paper's
	// sublist architecture.
	List = core.List
	// ListStats counts hardware work (cycles, SRAM accesses) per list.
	ListStats = core.Stats
)

// Predicate sentinels (§5.2): Always encodes an eligibility predicate
// that is always true, Never one that is always false.
const (
	Always = clock.Always
	Never  = clock.Never
)

// Typed errors. Every backend and layer reports failure through these
// (DESIGN.md §8) instead of panicking; scheduler layers count them in
// FaultStats and keep the latest as LastFault.
var (
	ErrFull      = core.ErrFull
	ErrDuplicate = core.ErrDuplicate
	// ErrUnknownFlow reports an ordered-list extraction whose ID has no
	// registered flow state.
	ErrUnknownFlow = core.ErrUnknownFlow
	// ErrRankOverflow reports a policy rank wider than the 48 bits every
	// hierarchy keeps for it; the child is refused on the enqueue-failure
	// path, never stored under a truncated rank.
	ErrRankOverflow = hier.ErrRankOverflow
)

// NewList creates a PIEO ordered list with capacity n using the paper's
// √n sublist geometry.
func NewList(n int) *List { return core.New(n) }

// NewListWithSublistSize creates a PIEO list with an explicit sublist
// size (geometry ablations).
func NewListWithSublistSize(n, s int) *List { return core.NewWithSublistSize(n, s) }

// Pluggable ordered-list backends.
type (
	// Backend is the whole ordered-list contract every consumer
	// (scheduler, hierarchy, SyncList, tools) programs against: the §3.1
	// operations plus re-rank, push-out victim, next wake and a
	// structural self-check. core.List, SyncList and the reference model
	// all implement every method of it.
	Backend = backend.Backend
	// BackendStats counts backend operations (enqueues, dequeues, …).
	BackendStats = backend.Stats
	// InvariantChecker is the self-check part of Backend.
	InvariantChecker = backend.InvariantChecker
	// HardwareModeled is the optional hardware-counter capability: every
	// backend but the reference model has it.
	HardwareModeled = backend.HardwareModeled
	// EligIndexed adds the inert EligIndexActive and DisableEligIndex
	// methods to Backend's NextWakeAfter.
	EligIndexed = backend.EligIndexed
	// Batcher is the optional batch-operation capability:
	// EnqueueBatch/DequeueUpTo with exact sequential semantics,
	// amortizing per-op overhead where a backend has a native batch path.
	Batcher = backend.Batcher
	// CombiningStats is what ShardedList.CombiningStats reports: always
	// zero. Inert: the engine has no rings; removed with the benchmark's
	// three ring rows (ROADMAP item 1).
	CombiningStats = backend.CombiningStats
	// ShardedList is SyncList under the name the benchmark uses: the
	// paper-exact list behind one mutex.
	ShardedList = shard.Engine
	// AdmissionPolicy selects what a full list does with an arrival:
	// reject, or rank-aware push-out (DESIGN.md §8).
	AdmissionPolicy = backend.AdmissionPolicy
	// AdmitOutcome reports the resident, if any, that an admission
	// decision evicted to take the arrival.
	AdmitOutcome = backend.AdmitOutcome
	// FaultStats counts the faults and admission decisions a scheduler
	// layer absorbed instead of panicking.
	FaultStats = backend.FaultStats
)

// Admission policies for full lists (DESIGN.md §8).
const (
	AdmitReject  = backend.AdmitReject
	AdmitPushOut = backend.AdmitPushOut
)

// Admit inserts e into b under the given admission policy: a full list
// is resolved by the policy (refuse the arrival with ErrFull, or evict
// the largest-ranked resident), every other error passes through
// unchanged.
func Admit(b Backend, pol AdmissionPolicy, e Entry) (AdmitOutcome, error) {
	return backend.Admit(b, pol, e)
}

// NewShardedList creates a SyncList with capacity n. The shard count k
// must lie in [0, 64] and is otherwise ignored.
func NewShardedList(n, k int) *ShardedList { return shard.New(n, k) }

// NewBackend constructs a registered backend by name ("core" or "ref")
// with the given capacity.
func NewBackend(name string, capacity int) (Backend, error) {
	return backend.New(name, capacity)
}

// BackendNames lists the registered backend names.
func BackendNames() []string { return backend.Names() }

// EnqueueBatch inserts es in order through b's native batch path when it
// has one (core and SyncList do), else through sequential
// Enqueue calls. It returns the number accepted and the first error
// encountered.
func EnqueueBatch(b Backend, es []Entry) (int, error) { return backend.EnqueueBatch(b, es) }

// DequeueUpTo extracts up to k eligible elements at now, appending them
// to out (which may be nil) and returning the extended slice.
func DequeueUpTo(b Backend, now Time, k int, out []Entry) []Entry {
	return backend.DequeueUpTo(b, now, k, out)
}

// Scheduler framework types (§3.2).
type (
	// FlowID identifies a flow (traffic class).
	FlowID = flowq.FlowID
	// Packet is a packet in a per-flow FIFO queue.
	Packet = flowq.Packet
	// Flow is per-flow scheduling and control-plane state.
	Flow = sched.Flow
	// Program is a scheduling algorithm expressed as programming
	// functions over the framework.
	Program = sched.Program
	// Scheduler is a flat single-level PIEO scheduler.
	Scheduler = sched.Scheduler
)

// NewScheduler creates a flat scheduler running prog for up to capacity
// flows on a link of the given rate.
func NewScheduler(prog *Program, capacity int, linkRateGbps float64) *Scheduler {
	return sched.New(prog, capacity, linkRateGbps)
}

// NewSchedulerOn creates a flat scheduler running prog over an explicit
// ordered-list backend.
func NewSchedulerOn(prog *Program, b Backend, linkRateGbps float64) *Scheduler {
	return sched.NewOn(prog, b, linkRateGbps)
}

// Algorithm catalogue (§4). Each constructor returns a Program for
// NewScheduler.
var (
	// FIFO schedules flows in arrival order (§2.3).
	FIFO = algos.FIFO
	// DRR is Deficit Round Robin (§4.1).
	DRR = algos.DRR
	// WFQ is Weighted Fair Queuing (§4.1).
	WFQ = algos.WFQ
	// WF2Q is Worst-case Fair Weighted Fair Queuing, WF²Q+ (§4.1) — the
	// algorithm PIFO cannot express.
	WF2Q = algos.WF2Q
	// TokenBucket is the classic non-work-conserving rate limiter (§4.2).
	TokenBucket = algos.TokenBucket
	// RCSP is Rate-Controlled Static-Priority queuing (§4.2).
	RCSP = algos.RCSP
	// StrictPriority schedules by static priority (§4.4, §4.5).
	StrictPriority = algos.StrictPriority
	// SJF is Shortest Job First (§4.5).
	SJF = algos.SJF
	// SRTF is Shortest Remaining Time First (§4.5).
	SRTF = algos.SRTF
	// EDF is Earliest Deadline First (§4.5).
	EDF = algos.EDF
	// LSTF is Least Slack Time First (§4.5).
	LSTF = algos.LSTF
	// Pacer releases each packet at its precomputed time (§1).
	Pacer = algos.Pacer

	// AgeStarvedFlows is the §4.4 starvation-avoidance alarm.
	AgeStarvedFlows = algos.AgeStarvedFlows
	// PauseFlow blocks a flow on asynchronous network feedback (§4.4).
	PauseFlow = algos.Pause
	// ResumeFlow unblocks a paused flow.
	ResumeFlow = algos.Resume
)

// Hierarchical scheduling (§4.3).
type (
	// Hierarchy is an n-level tree of PIEO schedulers.
	Hierarchy = hier.Hierarchy
	// Node is a non-leaf vertex whose Policy schedules its children.
	Node = hier.Node
	// Policy is a per-node scheduling algorithm.
	Policy = hier.Policy
)

// NewHierarchy creates a hierarchy whose root schedules its children
// with rootPolicy. Add nodes/flows, then call Build before traffic.
func NewHierarchy(linkRateGbps float64, rootPolicy *Policy) *Hierarchy {
	return hier.New(linkRateGbps, rootPolicy)
}

// NewHierOn creates a hierarchy in logical-partitioned mode (§4.2): ALL
// tree nodes multiplex onto ONE shared physical PIEO of the named
// registered backend ("core" or "ref"),
// each node owning a contiguous ID band extracted with ranged dequeues.
// This is the arrangement that scales to tens of thousands of logical
// schedulers; NewHierarchy keeps the paper's original one-list-per-level
// layout, with the same bands on a list per depth. In
// either, the top 16 bits of the stored rank hold the node's rank region,
// so policy ranks must fit in 48 bits (ErrRankOverflow otherwise).
func NewHierOn(linkRateGbps float64, rootPolicy *Policy, backendName string) (*Hierarchy, error) {
	// Resolve the name up front so a typo fails at construction, not at
	// Build (the factory itself cannot return an error).
	if _, err := backend.New(backendName, 1); err != nil {
		return nil, err
	}
	return hier.NewPartitionedOn(linkRateGbps, rootPolicy, func(n int) Backend {
		b, err := backend.New(backendName, n)
		if err != nil {
			panic(fmt.Sprintf("pieo: backend %q: %v", backendName, err))
		}
		return b
	}), nil
}

// Per-node policies for hierarchies.
var (
	// RoundRobinPolicy rotates through children.
	RoundRobinPolicy = policy.RoundRobin
	// StrictPriorityPolicy schedules children by static priority.
	StrictPriorityPolicy = policy.StrictPriority
	// WFQPolicy is per-node Weighted Fair Queuing.
	WFQPolicy = policy.WFQ
	// WF2QPolicy is per-node WF²Q+.
	WF2QPolicy = policy.WF2Q
	// TokenBucketPolicy rate-limits each child independently.
	TokenBucketPolicy = policy.TokenBucket
)

// Simulation substrate.
type (
	// Link models a fixed-rate transmit link.
	Link = netsim.Link
	// Sim is the discrete-event simulation loop.
	Sim = netsim.Sim
	// SimScheduler is the contract schedulers offer the simulator.
	SimScheduler = netsim.Scheduler
)

// NewSim creates a simulation over the given link and scheduler.
func NewSim(link Link, s SimScheduler) *Sim { return netsim.New(link, s) }

// Wire-facing edge (Fig 1's ingress): frame decoding and flow
// classification.
type (
	// FiveTuple identifies a flow on the wire.
	FiveTuple = wire.FiveTuple
	// FrameDecoder decodes Ethernet/IPv4/{TCP,UDP} frames without
	// per-packet allocation.
	FrameDecoder = wire.Decoder
	// Classifier assigns stable FlowIDs to 5-tuples.
	Classifier = wire.Classifier
)

// NewClassifier creates a flow classifier admitting up to maxFlows flows.
func NewClassifier(maxFlows int) *Classifier { return wire.NewClassifier(maxFlows) }

// BuildFrame serializes a minimal Ethernet/IPv4/{TCP,UDP} frame, for
// tests and traffic generators.
var BuildFrame = wire.BuildFrame
