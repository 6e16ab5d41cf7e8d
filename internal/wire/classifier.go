package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pieo/internal/flowq"
)

// Classifier assigns stable FlowIDs to 5-tuples — the step between the
// wire and the per-flow queues in Fig 1. IDs are dense and allocated in
// first-seen order so they can index the scheduler's flow table and the
// hierarchy's contiguous child ranges directly.
//
// The tuple table is open-addressed and sized once for maxFlows at most
// half full: a flow is never forgotten, so there is neither deletion nor
// growth. A tuple is packed into two words, hashed with one widening
// multiply, and matched by comparing both words.
type Classifier struct {
	// Symmetric, when true, maps both directions of a connection to the
	// same flow (classification by FastHash-style canonical tuple).
	Symmetric bool

	slots []tupleSlot // len is a power of two, at least 2*max
	shift uint8       // 64 - log2(len(slots)): hash bits kept
	next  flowq.FlowID
	max   int
}

// tupleKey is a FiveTuple packed big-endian, so that comparing (addrs,
// rest) orders tuples by source address, destination address, source
// port, destination port. rest carries a marker in its top bit and is
// never zero: a zero rest marks a table slot empty.
type tupleKey struct {
	addrs uint64 // SrcIP<<32 | DstIP
	rest  uint64 // 1<<63 | SrcPort<<24 | DstPort<<8 | Protocol
}

type tupleSlot struct {
	key tupleKey
	id  flowq.FlowID
}

func pack(t FiveTuple) tupleKey {
	return tupleKey{
		addrs: uint64(binary.BigEndian.Uint32(t.SrcIP[:]))<<32 | uint64(binary.BigEndian.Uint32(t.DstIP[:])),
		rest:  1<<63 | uint64(t.SrcPort)<<24 | uint64(t.DstPort)<<8 | uint64(t.Protocol),
	}
}

// NewClassifier creates a classifier admitting at most maxFlows flows.
func NewClassifier(maxFlows int) *Classifier {
	if maxFlows <= 0 {
		panic(fmt.Sprintf("wire: maxFlows must be positive, got %d", maxFlows))
	}
	logSlots := bits.Len(uint(2*maxFlows - 1))
	return &Classifier{
		slots: make([]tupleSlot, 1<<logSlots),
		shift: uint8(64 - logSlots),
		max:   maxFlows,
	}
}

// key packs the tuple, folding the two directions onto the smaller one
// when Symmetric.
func (c *Classifier) key(t FiveTuple) tupleKey {
	k := pack(t)
	if c.Symmetric {
		if r := pack(t.Reverse()); r.addrs < k.addrs || r.addrs == k.addrs && r.rest < k.rest {
			return r
		}
	}
	return k
}

// home is the slot k's probe sequence starts at: the two halves of a
// 64x64→128-bit product, folded, so that every input bit reaches the
// top bits kept for one multiply instruction. The constants keep a
// factor from being zero for the all-zero tuple and give sparse inputs
// dense factors.
func (c *Classifier) home(k tupleKey) uint64 {
	hi, lo := bits.Mul64(k.addrs^0x9E3779B97F4A7C15, k.rest^0xC6A4A7935BD1E995)
	return (hi ^ lo) >> c.shift
}

// find walks k's probe sequence and returns the slot holding k, or the
// empty slot that ends the sequence. One always does: the table is at
// most half full.
func (c *Classifier) find(k tupleKey) *tupleSlot {
	mask := uint64(len(c.slots) - 1)
	for i := c.home(k); ; i = (i + 1) & mask {
		if s := &c.slots[i]; s.key == k || s.key.rest == 0 {
			return s
		}
	}
}

// Classify returns the FlowID for the tuple, allocating one on first
// sight. ok is false when the flow table is full and the tuple is new.
func (c *Classifier) Classify(t FiveTuple) (flowq.FlowID, bool) {
	k := c.key(t)
	s := c.find(k)
	if s.key.rest != 0 {
		return s.id, true
	}
	if c.Flows() >= c.max {
		return 0, false
	}
	*s = tupleSlot{key: k, id: c.next}
	c.next++
	return s.id, true
}

// Flows returns the number of allocated flows.
func (c *Classifier) Flows() int { return int(c.next) }

// Lookup returns the FlowID without allocating.
func (c *Classifier) Lookup(t FiveTuple) (flowq.FlowID, bool) {
	s := c.find(c.key(t))
	return s.id, s.key.rest != 0
}
