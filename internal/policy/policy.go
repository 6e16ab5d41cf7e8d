// Package policy is the one catalogue of scheduling policies that both
// the flat scheduler (internal/sched) and every node of a hierarchy
// (internal/hier) run: round-robin, strict priority, WFQ, WF²Q+, token
// bucket, RCSP, EDF, LSTF and SJF, each written once (§4.1, §4.2, §4.4,
// §4.5). A policy sees the element it ranks as an Attrs and the
// scheduler it runs in as a Node; a flat scheduler is the one-node tree,
// a hierarchy node is any other.
//
// Rank is the §3.2 pre-enqueue function, the one ranking hook: it sees
// the element's head packet and the bytes it has queued. The framework
// drives the hooks in a fixed order around every transmission: Rank when
// an element (re-)enters its list, then, after the element is served,
// Charge on it, its re-enqueue (a fresh Rank), and Advance on the node.
// Rank may run again on an element that was not served in between — an
// alarm, a deferred descent — and must then give the same answer; all
// charging belongs to Charge and Advance.
package policy

import (
	"pieo/internal/clock"
	"pieo/internal/flowq"
)

// Attrs is the scheduling state of one element of a PIEO list — a flow
// of the flat scheduler, a child of a hierarchy node. The control plane
// sets the configuration fields; the policy owns the rest.
type Attrs struct {
	// Scheduling attributes assigned by Rank (§3.1).
	Rank     uint64
	SendTime clock.Time

	// Control-plane configuration.
	Weight   uint64  // fair-queueing weight (WFQ/WF²Q+)
	Quantum  uint64  // expected packet size for interior shaping; DRR quantum, bytes
	Priority uint64  // strict/static priority, smaller is better
	RateGbps float64 // token-bucket rate in Gbps (= bits per simulated ns)
	Burst    float64 // token-bucket depth in bytes

	// Policy state.
	VirtualStart  uint64     // virtual start of the element's next packet
	VirtualFinish uint64     // virtual finish of the element's last packet
	Tokens        float64    // token bucket level in bytes
	LastRefill    clock.Time // token bucket last update

	// Busy is the activation flag: the framework sets it once the
	// element is ranked and clears it when the element's queue runs dry.
	// A Rank on an element that is not Busy is an activation, where fair
	// queueing applies Fig 2(a)'s start = max(finish, V); a busy
	// element's next packet starts exactly at its previous finish.
	Busy bool
}

// Node is the scheduler a policy runs in — a flat scheduler, or one node
// of a hierarchy — as the policies see it: its virtual clock, its
// children's weights, its link and its backlog.
type Node struct {
	// V is the node's fair-queueing virtual time (§4.1), in scaled
	// wire-nanoseconds.
	V clock.Virtual

	// SumWeights is the total weight of the node's children, which
	// converts a packet's wire time into virtual service.
	SumWeights uint64

	LinkRateGbps float64

	// MinStart returns the smallest send time among the children in the
	// node's list, clock.Never when there are none.
	MinStart func() clock.Time
}

// WireTime returns the wire time of size bytes on the node's link, in
// simulated nanoseconds.
func (n *Node) WireTime(size uint32) clock.Time {
	ns := float64(size) * 8 / n.LinkRateGbps
	if ns < 1 {
		ns = 1
	}
	return clock.Time(ns)
}

// Policy is a scheduling algorithm over a node's children. Rank is
// required; any other nil hook does nothing (DequeueTime: the wall
// clock).
type Policy struct {
	Name string

	// DequeueTime maps the wall clock to the predicate domain of the
	// node's PIEO; nil means the wall clock itself.
	DequeueTime func(n *Node, now clock.Time) clock.Time

	// Rank assigns a.Rank and a.SendTime for an element whose next
	// packet is head and which has backlog bytes queued. A hierarchy's
	// interior child knows neither before the descent below it picks a
	// packet: it passes head = {Size: Quantum} and backlog = Quantum. It
	// must be idempotent.
	Rank func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64)

	// Charge updates the element after it transmitted sent bytes, before
	// it is re-enqueued; ranked is the head size its last Rank saw. The
	// two differ for a hierarchy's interior child, ranked by its Quantum
	// before the descent below it picked a packet.
	Charge func(n *Node, now clock.Time, a *Attrs, ranked, sent uint32)

	// Advance updates the node after one of its elements transmitted
	// size bytes and was re-enqueued.
	Advance func(n *Node, now clock.Time, size uint32)

	// OnIdle runs when the node's PIEO holds elements but none is
	// eligible at the policy's dequeue time. Returning true means state
	// changed (WF²Q+'s virtual-clock jump) and the extraction should be
	// retried once.
	OnIdle func(n *Node, now clock.Time) bool
}

// RoundRobin gives every element rank 1 and an always-true predicate, so
// PIEO's FIFO tie-breaking rotates through them.
func RoundRobin() *Policy {
	return &Policy{
		Name: "round-robin",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			a.Rank = 1
			a.SendTime = clock.Always
		},
	}
}

// StrictPriority ranks by the static Priority field (§4.4, §4.5; smaller
// wins), always eligible. PIEO emulates a plain priority queue this way.
func StrictPriority() *Policy {
	return &Policy{
		Name: "strict-priority",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			a.Rank = a.Priority
			a.SendTime = clock.Always
		},
	}
}

// RCSP is Rate-Controlled Static-Priority queuing (§4.2): traffic
// shaping stamps each packet's eligibility time on arrival (SendAt), and
// among the elements whose head packet is eligible the smallest Priority
// wins.
func RCSP() *Policy {
	return &Policy{
		Name: "rcsp",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			a.Rank = a.Priority
			a.SendTime = head.SendAt
		},
	}
}

// EDF is Earliest Deadline First (§4.5): rank is the head packet's
// absolute deadline.
func EDF() *Policy {
	return &Policy{
		Name: "edf",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			a.Rank = uint64(head.Deadline)
			a.SendTime = clock.Always
		},
	}
}

// LSTF is Least Slack Time First (§4.5, the near-universal scheduler of
// UPS): rank is the head packet's slack when it is ranked — time to its
// deadline minus its wire time, floored at zero.
func LSTF() *Policy {
	return &Policy{
		Name: "lstf",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			var slack uint64
			if end := now + n.WireTime(head.Size); head.Deadline > end {
				slack = uint64(head.Deadline - end)
			}
			a.Rank = slack
			a.SendTime = clock.Always
		},
	}
}

// SJF is Shortest Job First (§4.5): rank is the element's queued bytes,
// so smaller jobs go first. Recomputed at every re-enqueue, the rank
// tracks the work remaining as the element drains (SRTF).
func SJF() *Policy {
	return &Policy{
		Name: "sjf",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			a.Rank = backlog
			a.SendTime = clock.Always
		},
	}
}

// fqScale converts a packet's wire time into an element's virtual
// service: wire_time * sum_weights / weight, so an element with twice
// the weight accumulates finish time half as fast.
func fqScale(n *Node, a *Attrs, size uint32) uint64 {
	return uint64(n.WireTime(size)) * max(n.SumWeights, 1) / a.Weight
}

// fqStart fixes the virtual start of the element's next packet: at an
// activation it is max(finish, V) (Fig 2(a)); a busy element keeps the
// start Charge chained from its previous finish, so a repeated Rank
// neither moves it nor bleeds service credit.
func fqStart(n *Node, a *Attrs) uint64 {
	if !a.Busy {
		a.VirtualStart = max(a.VirtualFinish, uint64(n.V.Now()))
	}
	return a.VirtualStart
}

// fqCharge closes the transmitted packet's virtual finish — the one Rank
// stamped, corrected by the bytes actually sent — and chains the next
// packet's start to it. When sent == ranked the stamp stands as it was,
// even if the weight sum moved since (a flat scheduler's grows as flows
// appear).
func fqCharge(n *Node, now clock.Time, a *Attrs, ranked, sent uint32) {
	a.VirtualFinish = a.Rank
	if sent != ranked {
		a.VirtualFinish += fqScale(n, a, sent) - fqScale(n, a, ranked)
	}
	a.VirtualStart = a.VirtualFinish
}

// WFQ is Weighted Fair Queuing (§4.1): rank is the next packet's virtual
// finish time, the predicate is always true, and the node's virtual time
// advances by the wire time of every transmitted packet.
func WFQ() *Policy {
	return &Policy{
		Name: "wfq",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			a.Rank = fqStart(n, a) + fqScale(n, a, head.Size)
			a.SendTime = clock.Always
		},
		Charge: fqCharge,
		Advance: func(n *Node, now clock.Time, size uint32) {
			n.V.Set(n.V.Now() + n.WireTime(size))
		},
	}
}

// WF2Q is Worst-case Fair Weighted Fair Queuing (WF²Q+, §4.1, Fig 2(a)) —
// the algorithm PIFO cannot express (§2.3). Rank is the virtual finish
// time, the predicate is (V >= virtual start), and V advances by each
// transmission with the floor V(t+x) = max(V(t)+x, min start among
// backlogged elements). Advance runs after the served element is
// re-enqueued, so the floor sees it too.
func WF2Q() *Policy {
	return &Policy{
		Name: "wf2q+",
		DequeueTime: func(n *Node, now clock.Time) clock.Time {
			return n.V.Now()
		},
		OnIdle: func(n *Node, now clock.Time) bool {
			// Fig 2(a)'s idle-link rule: when backlogged elements exist
			// but none is eligible (a busy period starting after idle time
			// left every start ahead of V), jump V to the minimum start.
			ms := n.MinStart()
			if ms == clock.Never || ms <= n.V.Now() {
				return false
			}
			n.V.Set(ms)
			return true
		},
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			start := fqStart(n, a)
			a.Rank = start + fqScale(n, a, head.Size)
			a.SendTime = clock.Time(start)
		},
		Charge: fqCharge,
		Advance: func(n *Node, now clock.Time, size uint32) {
			x := n.WireTime(size)
			n.V.OnTransmit(x, n.MinStart())
		},
	}
}

// TokenBucket is the classic non-work-conserving shaper (§4.2): each
// element accrues RateGbps tokens up to a depth of Burst bytes, its send
// time is deferred until the bucket covers the expected packet, and the
// bucket is charged the bytes actually sent. Rank and predicate are that
// send time, against the wall clock. An element whose rate can never
// cover the deficit (unset, vanishing or negative) parks at clock.Never.
//
// The control plane should set Tokens = Burst when configuring an
// element so its bucket starts full; otherwise it fills from empty
// starting at time zero.
func TokenBucket() *Policy {
	return &Policy{
		Name: "token-bucket",
		Rank: func(n *Node, now clock.Time, a *Attrs, head flowq.Packet, backlog uint64) {
			Refill(a, now)
			sendTime := now
			if need := float64(head.Size); need > a.Tokens {
				sendTime = clock.After(now, (need-a.Tokens)*8/a.RateGbps)
			}
			a.Rank = uint64(sendTime)
			a.SendTime = sendTime
		},
		Charge: func(n *Node, now clock.Time, a *Attrs, ranked, sent uint32) {
			Refill(a, now)
			a.Tokens -= float64(sent)
		},
	}
}

// Refill accrues a's tokens from its last update to now, capped at the
// burst depth. It is idempotent at a fixed instant.
func Refill(a *Attrs, now clock.Time) {
	a.Tokens = min(a.Tokens+a.RateGbps/8*float64(now-a.LastRefill), a.Burst)
	a.LastRefill = now
}
