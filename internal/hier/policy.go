package hier

import "pieo/internal/policy"

// Policy is the scheduling algorithm a node applies to its children: a
// policy of the one catalogue (internal/policy) that the flat scheduler
// runs too. This file holds what a hierarchy node provides to it; the
// minimum resident start is its band's heap top (Partition.minStart).
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
