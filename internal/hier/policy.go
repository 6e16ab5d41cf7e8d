package hier

import (
	"pieo/internal/clock"
	"pieo/internal/policy"
)

// Policy is the scheduling algorithm a node applies to its children: a
// policy of the one catalogue (internal/policy) that the flat scheduler
// runs too. This file holds what a hierarchy node provides to it.
type Policy = policy.Policy

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

// weightSum returns the total weight of n's children. Weights are
// control-plane state configured between Build and traffic, so a node's
// SumWeights is filled from it on the node's first enqueue.
func (n *Node) weightSum() uint64 {
	var sum uint64
	for _, c := range n.children {
		sum += c.Weight
	}
	return sum
}

// minStart is the node's policy.Node MinStart: the smallest send time
// among n's children currently enqueued in its logical PIEO — the
// backlogged term of the WF²Q+ virtual time update, scoped to this node's
// logical partition. The update is V = max(floor, min start), so the
// minimum only matters when it lies above floor: the scan stops at the
// first resident child starting at or below it and returns that start
// instead.
func (n *Node) minStart(floor clock.Time) clock.Time {
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
