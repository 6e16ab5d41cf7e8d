// Package sched implements the PIEO programming framework of §3.2: a
// scheduler built around a PIEO ordered list whose behavior is programmed
// through pre-enqueue and post-dequeue functions, a choice of
// input-triggered or output-triggered enqueue model, and asynchronous
// alarm functions that can pull specific flows out of the list, update
// their attributes, and push them back. The pre-enqueue function is a
// catalogue policy's Rank (internal/policy), the same hook every node of
// a hierarchy runs.
//
// Each element of the ordered list is a flow; scheduling a flow transmits
// the packet(s) at the head of its FIFO queue (Fig 3). All scheduling
// state lives either per flow (the Flow struct, which doubles as the
// control-plane surface: weights, rate limits, priorities) or globally on
// the Scheduler (the fair-queueing virtual clock), exactly as the paper
// prescribes.
package sched

import (
	"errors"
	"fmt"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/idtab"
	"pieo/internal/policy"
)

// Flow carries all per-flow scheduling state: the FIFO queue, the
// catalogue's Attrs (current rank and eligibility time, the control-plane
// configuration — weight, rate limit, priority, DRR quantum — and the
// policy state), and the fields only flat programs use. The control plane
// mutates the configuration fields directly; the programming functions
// own the rest.
type Flow struct {
	ID    flowq.FlowID
	Queue flowq.Queue

	policy.Attrs

	Deficit       uint64     // DRR deficit counter in bytes
	LastScheduled clock.Time // for starvation detection (§4.4)
	Blocked       bool       // paused by network feedback (§4.4 D3)
}

// Program is a scheduling algorithm expressed against the framework: a
// catalogue policy plus the flat-only hooks some algorithms add to it.
// Any nil hook uses the default behavior of §3.2.1.
type Program struct {
	Name string

	// Policy is the program's catalogue policy (internal/policy), called
	// directly on the per-packet path. Its Rank is the pre-enqueue
	// function; the default post-dequeue runs its Charge and Advance.
	// nil means policy.RoundRobin: rank 1, always eligible.
	Policy *policy.Policy

	// PrePacket, if set, makes the program input-triggered (§3.2.1): it
	// assigns p.Rank and p.SendAt when a packet arrives, and a flow
	// adopts its head packet's rank and send time at every (re-)enqueue
	// in place of Policy.Rank, keeping the dequeue path minimal. Without
	// it the program is output-triggered: ranking sits on the dequeue
	// path but sees the freshest state, so shaping is more precise.
	PrePacket func(s *Scheduler, now clock.Time, f *Flow, p *flowq.Packet)

	// PostDequeue transmits from the dequeued flow and updates state.
	// It returns the packets to put on the wire and normally re-enqueues
	// the flow via s.EnqueueFlow when it stays backlogged. Default: pop
	// the head packet, Policy.Charge the flow, re-enqueue it, and
	// Policy.Advance the scheduler. The flow's queue is never empty here:
	// NextPacket counts such a phantom extraction as a fault instead of
	// running the hook.
	//
	// A hook builds its burst with s.Burst, which appends to a buffer the
	// scheduler owns and reuses: the returned slice is valid until the
	// next NextPacket call and must not be kept. (NextPacket hands the
	// burst to the link one packet per call and runs no hook until it
	// has handed over the last.) A hook may instead return a slice of
	// its own; the scheduler only reads it.
	PostDequeue func(s *Scheduler, now clock.Time, f *Flow) []flowq.Packet

	// OnArrival, if set, runs after every packet lands in its flow
	// queue. Algorithms whose rank depends on queue contents (SJF/SRTF)
	// use it to refresh the flow's list entry via Scheduler.Alarm — the
	// §4.4 "dynamically update the scheduling attributes" pattern.
	OnArrival func(s *Scheduler, now clock.Time, f *Flow)
}

// FromPolicy runs a catalogue policy (internal/policy) as a flat
// program: the scheduler is the policy's one-node tree.
func FromPolicy(p *policy.Policy) *Program {
	return &Program{Name: p.Name, Policy: p}
}

// policyPostDequeue is the default post-dequeue: pop the head packet,
// charge the flow, re-enqueue it, and advance the scheduler, in that
// order.
func (s *Scheduler) policyPostDequeue(now clock.Time, f *Flow) []flowq.Packet {
	p := s.pol
	pkt, _ := f.Queue.Pop()
	if p.Charge != nil {
		p.Charge(&s.Node, now, &f.Attrs, pkt.Size, pkt.Size)
	}
	s.EnqueueFlow(now, f)
	if p.Advance != nil {
		p.Advance(&s.Node, now, pkt.Size)
	}
	f.LastScheduled = now
	return s.Burst(pkt)
}

// Scheduler is a flat (single-level) PIEO scheduler: one ordered list, a
// set of flows, and a program. It implements netsim.Scheduler and
// netsim.WakeHinter.
type Scheduler struct {
	Prog *Program
	pol  *policy.Policy // Prog.Policy, or round-robin when that is nil
	// List is the ordered-list backend the scheduler extracts from. It
	// defaults to the paper-exact sublist implementation (core.List via
	// backend.CoreList); NewOn swaps in any other backend — the sharded
	// engine, the reference model — without touching the programming
	// framework.
	List backend.Backend

	// Node is the scheduler as the catalogue's policies see it: the link
	// rate, the global fair-queueing virtual time V, and SumWeights, the
	// total weight of all configured flows.
	policy.Node

	// Admission selects what happens when the ordered list is full and a
	// flow must enter it (see backend.AdmissionPolicy): reject, tail-drop,
	// or rank-aware push-out. The zero value, AdmitReject, sheds the
	// arriving flow's backlog as declared drops.
	Admission backend.AdmissionPolicy

	// flows resolves a FlowID on every arrival and every dequeue. IDs are
	// arbitrary sparse uint32s; nothing assumes they are dense.
	flows idtab.Table[idtab.ID, *Flow]
	all   []*Flow // every flow, in creation order
	slab  []Flow  // unused tail of the newest flow slab (see newFlow)

	burst   []flowq.Packet // the buffer Burst appends to, reused by every PostDequeue
	pending []flowq.Packet // burst left over from a multi-packet PostDequeue
	prePkt  flowq.Packet   // the copy a PrePacket hook writes; lives here so arrivals do not escape
	drops   uint64         // packets tail-dropped at full flow queues

	faults  backend.FaultStats // fault and admission counters
	lastErr error              // most recent fault, for diagnosis
}

// New creates a scheduler for up to capacity concurrent flows on a link
// of the given rate, over the default paper-exact list backend.
func New(prog *Program, capacity int, linkRateGbps float64) *Scheduler {
	return NewOn(prog, backend.NewCoreList(capacity), linkRateGbps)
}

// NewOn creates a scheduler over an explicit ordered-list backend. The
// programming framework is backend-agnostic: any backend.Backend can
// carry the §3.2 functions.
func NewOn(prog *Program, b backend.Backend, linkRateGbps float64) *Scheduler {
	if prog == nil {
		panic("sched: program must not be nil")
	}
	if b == nil {
		panic("sched: backend must not be nil")
	}
	if linkRateGbps <= 0 {
		panic(fmt.Sprintf("sched: link rate must be positive, got %v", linkRateGbps))
	}
	pol := prog.Policy
	if pol == nil {
		pol = policy.RoundRobin()
	}
	s := &Scheduler{
		Prog:  prog,
		pol:   pol,
		List:  b,
		Node:  policy.Node{LinkRateGbps: linkRateGbps},
		flows: idtab.New[idtab.ID, *Flow](0),
	}
	s.MinStart = s.minStart
	return s
}

// FaultStats returns the fault and admission counters.
func (s *Scheduler) FaultStats() backend.FaultStats { return s.faults }

// LastFault returns the most recent fault, nil if none.
func (s *Scheduler) LastFault() error { return s.lastErr }

// fault is the one exit for a scheduling fault: it counts what and
// remembers err.
func (s *Scheduler) fault(what backend.FaultStats, err error) {
	s.faults.Add(what)
	s.lastErr = err
}

// flushFlow sheds f's entire queued backlog as declared drops — the
// overload/fault response when f cannot (re-)enter the ordered list: a
// flow outside the list is never scheduled, so keeping its packets would
// stall them silently; dropping them keeps conservation auditable.
func (s *Scheduler) flushFlow(f *Flow) {
	for {
		if _, ok := f.Queue.Pop(); !ok {
			break
		}
		s.faults.DroppedPackets++
	}
}

// BackendStats returns the ordered-list backend's operation counters, for
// netsim reporting and the cmd/ tools.
func (s *Scheduler) BackendStats() backend.Stats { return s.List.Stats() }

// Flow returns the per-flow state for id, creating it with default
// control-plane settings (weight 1, MTU quantum) on first use.
func (s *Scheduler) Flow(id flowq.FlowID) *Flow {
	f, ok := s.flows.Get(idtab.ID(id))
	if !ok {
		f = s.newFlow(id)
		*f = Flow{ID: id, Attrs: policy.Attrs{Weight: 1, Quantum: 1500}}
		s.SumWeights += f.Weight
	}
	return f
}

// SetWeight updates a flow's fair-queueing weight, keeping SumWeights
// coherent. Control-plane use.
func (s *Scheduler) SetWeight(id flowq.FlowID, w uint64) {
	if w == 0 {
		panic("sched: weight must be positive")
	}
	f := s.Flow(id)
	s.SumWeights += w - f.Weight
	f.Weight = w
}

// Flows returns the number of flows ever seen.
func (s *Scheduler) Flows() int { return len(s.all) }

// minStart is the scheduler's Node.MinStart: the smallest send time in
// the list, clock.Never when it is empty — answered from the list's
// eligibility metadata in O(1), so floor is not needed.
func (s *Scheduler) minStart(floor clock.Time) clock.Time {
	if t, ok := s.List.MinSendTime(); ok {
		return t
	}
	return clock.Never
}

// OnArrival implements netsim.Scheduler: deliver p to its flow queue and
// enqueue the flow into the ordered list if the queue was empty.
func (s *Scheduler) OnArrival(now clock.Time, p flowq.Packet) {
	f := s.Flow(p.Flow)
	if s.Prog.PrePacket != nil {
		p = s.prePacket(now, f, p)
	}
	wasEmpty := f.Queue.Empty()
	if !f.Queue.TryPush(p) {
		s.drops++ // tail drop: the flow queue is at its configured limit
		return
	}
	if wasEmpty {
		f.Busy = false // a busy period starts: the next Rank activates
		s.EnqueueFlow(now, f)
	}
	if s.Prog.OnArrival != nil {
		s.Prog.OnArrival(s, now, f)
	}
}

// prePacket runs PrePacket on an arriving packet. The hook takes a
// pointer, and a pointer handed to a function value escapes: it points
// at the scheduler's own copy, so that OnArrival's parameter stays on
// the stack for every program.
func (s *Scheduler) prePacket(now clock.Time, f *Flow, p flowq.Packet) flowq.Packet {
	s.prePkt = p
	s.Prog.PrePacket(s, now, f, &s.prePkt)
	return s.prePkt
}

// Drops returns the number of packets tail-dropped across all flows.
func (s *Scheduler) Drops() uint64 { return s.drops }

// NextPacket implements netsim.Scheduler: extract the smallest-ranked
// eligible flow, run the post-dequeue function, and hand the first packet
// of the resulting burst to the link. Remaining burst packets (DRR) are
// returned on subsequent calls before the list is consulted again.
func (s *Scheduler) NextPacket(now clock.Time) (flowq.Packet, bool) {
	if len(s.pending) > 0 {
		p := s.pending[0]
		s.pending = s.pending[1:]
		return p, true
	}
	t := now
	if s.pol.DequeueTime != nil {
		t = s.pol.DequeueTime(&s.Node, now)
	}
	// A post-dequeue may legitimately transmit nothing and re-enqueue the
	// flow (DRR whose deficit does not yet cover the head packet); keep
	// extracting until a packet emerges. Progress is guaranteed by the
	// program (DRR's deficit grows each visit), but a hard cap turns a
	// misbehaving program into a counted fault and an idle link instead
	// of a hang.
	retriedIdle := false
	for spins := 0; ; spins++ {
		if spins > 1<<22 {
			s.fault(backend.FaultStats{SpinGuardTrips: 1},
				fmt.Errorf("sched: program %q made no progress after %d dequeues", s.Prog.Name, spins))
			return flowq.Packet{}, false
		}
		e, ok := s.List.Dequeue(t)
		if !ok {
			if !retriedIdle && s.List.Len() > 0 && s.pol.OnIdle != nil && s.pol.OnIdle(&s.Node, now) {
				retriedIdle = true
				if s.pol.DequeueTime != nil {
					t = s.pol.DequeueTime(&s.Node, now)
				}
				continue
			}
			return flowq.Packet{}, false
		}
		f, ok := s.flows.Get(idtab.ID(e.ID))
		if !ok || f.Queue.Empty() {
			// The extracted element references no flow state, or a fault
			// path (admission flush, chaotic backend) emptied the flow's
			// queue while its entry was in flight — a phantom extraction.
			// Either way no program runs: discard it and keep scheduling,
			// the list is already consistent again.
			s.fault(backend.FaultStats{UnknownFlows: 1},
				fmt.Errorf("sched: list returned flow %d, which has nothing to send: %w", e.ID, core.ErrUnknownFlow))
			continue
		}
		s.burst = s.burst[:0] // pending is drained: the last burst is on the wire
		var burst []flowq.Packet
		if s.Prog.PostDequeue != nil {
			burst = s.Prog.PostDequeue(s, now, f)
		} else {
			burst = s.policyPostDequeue(now, f)
		}
		if len(burst) == 0 {
			continue
		}
		s.pending = burst[1:]
		return burst[0], true
	}
}

// Burst adds p to the burst the running PostDequeue hook is building and
// returns the burst so far. The buffer is the scheduler's, emptied before
// each hook runs: the result is valid until the next NextPacket call.
func (s *Scheduler) Burst(p flowq.Packet) []flowq.Packet {
	s.burst = append(s.burst, p)
	return s.burst
}

// EnqueueFlow (re-)inserts f into the ordered list: under the
// output-triggered model the policy's Rank assigns rank and send time
// from the head packet and the queued bytes; under the input-triggered
// model the flow adopts its head packet's precomputed attributes. Blocked flows (§4.4) and flows already
// in the list are left alone.
//
// A full list is resolved by the Admission policy, the scheduler's one
// overload setting: the rejected party's backlog — the arriving flow's,
// or under push-out the evicted victim's — is shed as declared drops.
// Any other insert failure is counted in FaultStats with the arriving
// flow's backlog shed, so a flow never silently stalls outside the list.
func (s *Scheduler) EnqueueFlow(now clock.Time, f *Flow) {
	if f.Blocked || f.Queue.Empty() || s.List.Contains(uint32(f.ID)) {
		return
	}
	head, _ := f.Queue.Head()
	if s.Prog.PrePacket != nil {
		f.Rank = head.Rank
		f.SendTime = head.SendAt
	} else {
		s.pol.Rank(&s.Node, now, &f.Attrs, head, f.Queue.Bytes())
	}
	f.Busy = true
	ent := core.Entry{ID: uint32(f.ID), Rank: f.Rank, SendTime: f.SendTime}
	out, err := backend.Admit(s.List, s.Admission, ent)
	switch {
	case err == nil:
		if out.DidEvict {
			s.faults.AdmissionEvictions++
			if vf, ok := s.flows.Get(idtab.ID(out.Evicted.ID)); ok {
				s.flushFlow(vf)
			}
		}
		if out.DroppedArrival {
			s.faults.AdmissionTailDrops++
			s.flushFlow(f)
		}
	case errors.Is(err, core.ErrFull): // AdmitReject surfaced the full list
		s.faults.AdmissionRejects++
		s.flushFlow(f)
	case errors.Is(err, core.ErrDuplicate):
		// Benign: the flow is already queued (an idempotent re-enqueue
		// race the Contains pre-check missed).
	default:
		s.fault(backend.FaultStats{EnqueueFailures: 1}, fmt.Errorf("sched: enqueue flow %d: %w", f.ID, err))
		s.flushFlow(f)
	}
}

// Alarm implements the §3.2/§4.4 asynchronous path: extract flow id from
// the ordered list if present, apply update, and re-enqueue it (unless
// the update blocked the flow or the flow has nothing to send). It
// reports whether the flow existed.
func (s *Scheduler) Alarm(now clock.Time, id flowq.FlowID, update func(f *Flow)) bool {
	f, ok := s.flows.Get(idtab.ID(id))
	if !ok {
		return false
	}
	s.List.DequeueFlow(uint32(id))
	update(f)
	s.EnqueueFlow(now, f)
	return true
}

// NextWake implements netsim.WakeHinter.
func (s *Scheduler) NextWake(now clock.Time) (clock.Time, bool) {
	if s.pol.DequeueTime != nil {
		// Non-wall predicate domain: no wall-clock mapping is known.
		return 0, false
	}
	if t, ok := backend.NextWakeAfter(s.List, now); ok {
		// The eligibility index answers the WakeHinter contract directly:
		// the exact earliest FUTURE eligibility instant, with elements
		// eligible already excluded (the simulator polls those without a
		// hint) and all-Never backlogs reported as "no wake known"
		// instead of an arm-at-infinity hint.
		return t, t != clock.Never
	}
	// Backends without the index (ref) answer from the minimum alone,
	// under the same contract: an all-Never backlog (a flow parked until
	// an Alarm) or an already-eligible minimum is no wake, never an alarm
	// armed at the end of time.
	t, ok := s.List.MinSendTime()
	return t, ok && t != clock.Never && t > now
}

// Backlog returns the total packets queued across all flows.
func (s *Scheduler) Backlog() int {
	total := len(s.pending)
	for _, f := range s.all {
		total += f.Queue.Len()
	}
	return total
}
