package backend

import (
	"errors"
	"fmt"

	"pieo/internal/core"
)

// AdmissionPolicy selects what happens when an Enqueue meets a full
// ordered list. The paper's hardware provisions the list for the worst
// case and never overflows; a software deployment shared by untrusted
// tenants cannot, so saturation behavior becomes part of the scheduling
// contract (Eiffel makes the same observation for software schedulers,
// and RIFO shows rank-aware push-out is the principled shedding rule for
// a bounded programmable scheduler).
type AdmissionPolicy int

const (
	// AdmitReject refuses the arrival: the caller gets core.ErrFull and
	// decides what to shed. This is the zero value and matches the
	// historical behavior of every backend.
	AdmitReject AdmissionPolicy = iota
	// AdmitPushOut applies RIFO's rank-aware rule: if the arrival
	// outranks (has a strictly smaller rank than) the largest-ranked
	// resident element, that element is evicted to make room; otherwise
	// the arrival is refused with core.ErrFull, as under AdmitReject.
	AdmitPushOut
)

// String names the policy.
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitReject:
		return "reject"
	case AdmitPushOut:
		return "push-out"
	default:
		return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
	}
}

// Evictor is the push-out part of Backend: it identifies and removes the
// largest-ranked resident element — the victim a rank-aware push-out
// admission policy sheds. Among equal maximal ranks the newest arrival
// is the victim, so eviction undoes the most recent low-priority
// admission first.
type Evictor interface {
	// PeekMax reports the current push-out victim without removing it.
	PeekMax() (core.Entry, bool)
	// EvictMax removes and returns the current push-out victim.
	EvictMax() (core.Entry, bool)
}

// AdmitOutcome reports what an Admit call that took the arrival (a nil
// error) did to make room for it.
type AdmitOutcome struct {
	// Evicted is the resident element push-out removed; valid only when
	// DidEvict is true.
	Evicted  core.Entry
	DidEvict bool
}

// Admit inserts e into b under the given admission policy. On a full
// list the policy decides between refusing the arrival (core.ErrFull)
// and evicting the largest-ranked resident; every other error
// (duplicate, shard down, injected faults) passes through unchanged so
// callers keep their typed-error handling.
func Admit(b Backend, pol AdmissionPolicy, e core.Entry) (AdmitOutcome, error) {
	err := b.Enqueue(e)
	if err == nil {
		return AdmitOutcome{}, nil
	}
	if pol != AdmitPushOut || !errors.Is(err, core.ErrFull) {
		return AdmitOutcome{}, err
	}
	// The arrival is refused, as under AdmitReject, when it does not
	// outrank the resident maximum or when the full signal raced an
	// empty list.
	if victim, ok := b.PeekMax(); !ok || e.Rank >= victim.Rank {
		return AdmitOutcome{}, err
	}
	victim, ok := b.EvictMax()
	if !ok {
		return AdmitOutcome{}, err
	}
	if err := b.Enqueue(e); err != nil {
		// The freed slot vanished (injected fault or a concurrent
		// producer). Put the victim back on a best-effort basis so
		// push-out never loses two elements for one arrival.
		if rerr := b.Enqueue(victim); rerr != nil {
			return AdmitOutcome{}, fmt.Errorf(
				"pieo: push-out re-enqueue failed (%w) and victim %d restore failed (%v)", err, victim.ID, rerr)
		}
		return AdmitOutcome{}, err
	}
	return AdmitOutcome{Evicted: victim, DidEvict: true}, nil
}

// FaultStats is the resilience counter block scheduler layers expose
// (sched.Scheduler, hier.Hierarchy) and netsim surfaces through its
// FaultReporter hook. Every counter is a condition the layer absorbs
// instead of panicking; the most recent error is retained for diagnosis.
type FaultStats struct {
	// SpinGuardTrips counts dequeue loops abandoned by the no-progress
	// guard.
	SpinGuardTrips uint64
	// EnqueueFailures counts flow (re-)enqueues that failed with an
	// error other than capacity — injected faults, shard-down, or
	// unexpected duplicates.
	EnqueueFailures uint64
	// UnknownFlows counts ordered-list extractions whose ID had no
	// registered flow state (core.ErrUnknownFlow conditions).
	UnknownFlows uint64
	// AdmissionRejects and AdmissionEvictions count full-list admission
	// outcomes: arrivals refused, and residents push-out evicted.
	AdmissionRejects   uint64
	AdmissionEvictions uint64
	// DroppedPackets counts packets shed by admission decisions and
	// fault handling — the scheduler's declared drops, disjoint from
	// per-flow-queue tail drops.
	DroppedPackets uint64
}

// Add accumulates other into s, for aggregating per-level counters.
func (s *FaultStats) Add(other FaultStats) {
	s.SpinGuardTrips += other.SpinGuardTrips
	s.EnqueueFailures += other.EnqueueFailures
	s.UnknownFlows += other.UnknownFlows
	s.AdmissionRejects += other.AdmissionRejects
	s.AdmissionEvictions += other.AdmissionEvictions
	s.DroppedPackets += other.DroppedPackets
}
