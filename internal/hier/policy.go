package hier

import (
	"fmt"

	"pieo/internal/clock"
)

// Policy is the scheduling algorithm a node applies to its children —
// the hierarchical counterpart of sched.Program. PreEnqueue must be
// idempotent (it can run again without a dequeue in between when a
// deferred sibling branch is retried); all state charging belongs in
// PostDequeue, which runs exactly once per transmitted packet.
type Policy struct {
	Name string

	// DequeueTime maps the wall clock to the predicate domain for this
	// node's logical PIEO; nil means the wall clock itself.
	DequeueTime func(n *Node, now clock.Time) clock.Time

	// PreEnqueue assigns c.Rank and c.SendTime. nil = rank 1, always
	// eligible (round-robin via FIFO tie-breaking).
	PreEnqueue func(n *Node, now clock.Time, c *Child)

	// PostDequeue updates policy state after a packet of the given size
	// was transmitted through child c. nil = no state.
	PostDequeue func(n *Node, now clock.Time, c *Child, size uint32)

	// OnIdle, if set, runs when the node's logical PIEO has children but
	// none is eligible in the policy's time domain. Returning true means
	// state changed (WF²Q+'s virtual-clock jump) and the extraction
	// should be retried once.
	OnIdle func(n *Node, now clock.Time) bool
}

func (p *Policy) preEnqueue(n *Node, now clock.Time, c *Child) {
	if p.PreEnqueue != nil {
		p.PreEnqueue(n, now, c)
		return
	}
	c.Rank = 1
	c.SendTime = clock.Always
}

func (p *Policy) postDequeue(n *Node, now clock.Time, c *Child, size uint32) {
	if p.PostDequeue != nil {
		p.PostDequeue(n, now, c, size)
	}
}

// expectedSize is the packet size a child is about to transmit: the head
// packet for leaves, the configured Quantum for interior nodes (whose
// winning descendant is not known until the descent below them).
func expectedSize(c *Child) uint32 {
	if c.IsLeaf() {
		if head, ok := c.Queue.Head(); ok {
			return head.Size
		}
	}
	return uint32(c.Quantum)
}

// sumWeights returns the total weight of n's children. Weights are
// control-plane state configured between Build and traffic, so the sum is
// cached on first scheduling use.
func (n *Node) sumWeights() uint64 {
	if n.cachedSumW == 0 {
		var sum uint64
		for _, c := range n.children {
			if c.Weight == 0 {
				panic(fmt.Sprintf("hier: child %d of %q has zero weight", c.ID, n.Name))
			}
			sum += c.Weight
		}
		n.cachedSumW = sum
	}
	return n.cachedSumW
}

// fqScale converts a packet's wire time into child c's virtual service
// under node n: wire_time * sum_weights / weight.
func fqScale(n *Node, c *Child, size uint32) uint64 {
	return uint64(n.h.WireTime(size)) * n.sumWeights() / c.Weight
}

// minChildStart returns the smallest virtual start time among n's
// children currently enqueued in its logical PIEO — the backlogged-flows
// term of the WF²Q+ virtual time update, scoped to this node's logical
// partition. The update is V = max(floor, min start), so the minimum only
// matters when it lies above floor: the scan stops at the first resident
// child starting at or below it and returns that start instead.
func minChildStart(n *Node, floor clock.Time) clock.Time {
	minT := clock.Never
	for _, c := range n.children {
		if c.resident && c.SendTime < minT {
			minT = c.SendTime
			if minT <= floor {
				break
			}
		}
	}
	return minT
}

// RoundRobin schedules children in round-robin order: every child gets
// rank 1 and an always-true predicate, so PIEO's FIFO tie-breaking
// rotates through them.
func RoundRobin() *Policy {
	return &Policy{Name: "round-robin"}
}

// StrictPriority schedules children by their static Priority field
// (smaller wins).
func StrictPriority() *Policy {
	return &Policy{
		Name: "strict-priority",
		PreEnqueue: func(n *Node, now clock.Time, c *Child) {
			c.Rank = c.Priority
			c.SendTime = clock.Always
		},
	}
}

// WFQ is hierarchical Weighted Fair Queuing: rank is the child's virtual
// finish time under this node's private virtual clock; always eligible.
func WFQ() *Policy {
	return &Policy{
		Name: "wfq",
		PreEnqueue: func(n *Node, now clock.Time, c *Child) {
			start := c.VirtualFinish
			if !c.requeued {
				if v := uint64(n.V.Now()); v > start {
					start = v
				}
			}
			c.virtualStart = start
			c.Rank = start + fqScale(n, c, expectedSize(c))
			c.SendTime = clock.Always
		},
		PostDequeue: func(n *Node, now clock.Time, c *Child, size uint32) {
			// Finish reflects the start assigned at enqueue and the
			// bytes actually transmitted.
			c.VirtualFinish = c.virtualStart + fqScale(n, c, size)
			n.V.Set(n.V.Now() + clock.Time(n.h.WireTime(size)))
		},
	}
}

// WF2Q is hierarchical Worst-case Fair Weighted Fair Queuing (WF²Q+):
// rank is the virtual finish time, the predicate is (node virtual time >=
// virtual start), and the node's virtual clock advances per transmission
// with the Fig 2(a) floor over its own backlogged children.
func WF2Q() *Policy {
	return &Policy{
		Name: "wf2q+",
		DequeueTime: func(n *Node, now clock.Time) clock.Time {
			return n.V.Now()
		},
		OnIdle: func(n *Node, now clock.Time) bool {
			// Fig 2(a)'s idle-link rule scoped to this node's logical
			// PIEO: jump the node's virtual clock to its children's
			// minimum start time.
			ms := minChildStart(n, n.V.Now())
			if ms == clock.Never || ms <= n.V.Now() {
				return false
			}
			n.V.Set(ms)
			return true
		},
		PreEnqueue: func(n *Node, now clock.Time, c *Child) {
			// start = max(finish, V) only at activation (Fig 2(a));
			// continuously backlogged children chain from their previous
			// finish exactly, or they bleed service credit.
			start := c.VirtualFinish
			if !c.requeued {
				if v := uint64(n.V.Now()); v > start {
					start = v
				}
			}
			c.virtualStart = start
			c.SendTime = clock.Time(start)
			c.Rank = start + fqScale(n, c, expectedSize(c))
		},
		PostDequeue: func(n *Node, now clock.Time, c *Child, size uint32) {
			// The packet's virtual start was fixed at enqueue; its
			// finish reflects the actual bytes sent.
			c.VirtualFinish = c.virtualStart + fqScale(n, c, size)
			x := n.h.WireTime(size)
			n.V.OnTransmit(x, minChildStart(n, n.V.Now()+x))
		},
	}
}

// DRR is hierarchical Deficit Round Robin: children rotate in FIFO
// order (rank from a per-node round counter) and a child is only allowed
// to transmit when its deficit covers the expected packet; the deficit
// tops up by Quantum each time the child's turn passes. Unlike the flat
// DRR program, the hierarchical variant transmits one packet per
// decision (the descent picks a single leaf), so the quantum is enforced
// across consecutive visits within the same round.
func DRR() *Policy {
	return &Policy{
		Name: "drr",
		PreEnqueue: func(n *Node, now clock.Time, c *Child) {
			c.Rank = c.VirtualFinish // per-child round number
			c.SendTime = clock.Always
		},
		PostDequeue: func(n *Node, now clock.Time, c *Child, size uint32) {
			if c.Tokens < float64(size) {
				c.Tokens += float64(c.Quantum)
			}
			c.Tokens -= float64(size)
			// The next packet's size below an interior node is unknown
			// until the next descent; estimate it with the size just
			// transmitted. When the remaining deficit cannot cover it,
			// the child moves to the next round.
			if c.Tokens < float64(size) {
				c.VirtualFinish++
			}
		},
	}
}

// TokenBucket rate-limits each child independently: the child's send
// time is deferred until its bucket covers the expected packet, and the
// bucket is charged the actual bytes at post-dequeue. Configure RateGbps,
// Burst (and optionally initial Tokens) on each child.
func TokenBucket() *Policy {
	return &Policy{
		Name: "token-bucket",
		PreEnqueue: func(n *Node, now clock.Time, c *Child) {
			refill(c, now)
			need := float64(expectedSize(c))
			sendTime := now
			if need > c.Tokens {
				sendTime = clock.After(now, (need-c.Tokens)*8/c.RateGbps)
			}
			c.Rank = uint64(sendTime)
			c.SendTime = sendTime
		},
		PostDequeue: func(n *Node, now clock.Time, c *Child, size uint32) {
			refill(c, now)
			c.Tokens -= float64(size)
		},
	}
}

// refill accrues tokens since the last update, capped at the burst
// depth. It is idempotent at a fixed instant.
func refill(c *Child, now clock.Time) {
	if c.RateGbps <= 0 {
		panic(fmt.Sprintf("hier: token-bucket child %d has no rate configured", c.ID))
	}
	c.Tokens += c.RateGbps / 8 * float64(now-c.LastRefill)
	if c.Tokens > c.Burst {
		c.Tokens = c.Burst
	}
	c.LastRefill = now
}
