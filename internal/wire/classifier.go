package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pieo/internal/flowq"
	"pieo/internal/idtab"
)

// Classifier assigns stable FlowIDs to 5-tuples — the step between the
// wire and the per-flow queues in Fig 1. IDs are dense and allocated in
// first-seen order so they can index the scheduler's flow table and the
// hierarchy's contiguous child ranges directly.
//
// The tuple table is sized once for maxFlows at most half full: a flow
// is never forgotten, so there is neither deletion nor growth. A tuple
// is packed into two words, hashed with one widening multiply, and
// matched by comparing both words.
type Classifier struct {
	// Symmetric, when true, maps both directions of a connection to the
	// same flow (classification by FastHash-style canonical tuple).
	Symmetric bool

	ids idtab.Table[tupleKey, flowq.FlowID] // tuple -> FlowID + 1
	max int
}

// tupleKey is a FiveTuple packed big-endian, so that comparing (addrs,
// rest) orders tuples by source address, destination address, source
// port, destination port. rest always has its top bit set; Hash is
// defined over this packing.
type tupleKey struct {
	addrs uint64 // SrcIP<<32 | DstIP
	rest  uint64 // 1<<63 | SrcPort<<24 | DstPort<<8 | Protocol
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
	return &Classifier{ids: idtab.New[tupleKey, flowq.FlowID](maxFlows), max: maxFlows}
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

// Hash folds the two halves of a 64x64→128-bit product, so that every
// input bit reaches the top bits the table keeps for one multiply
// instruction. The constants keep a factor from being zero for the
// all-zero tuple and give sparse inputs dense factors.
func (k tupleKey) Hash() uint64 {
	hi, lo := bits.Mul64(k.addrs^0x9E3779B97F4A7C15, k.rest^0xC6A4A7935BD1E995)
	return hi ^ lo
}

// Classify returns the FlowID for the tuple, allocating one on first
// sight. ok is false when the flow table is full and the tuple is new.
func (c *Classifier) Classify(t FiveTuple) (flowq.FlowID, bool) {
	k := c.key(t)
	if id, ok := c.ids.Get(k); ok {
		return id - 1, true
	}
	if c.Flows() >= c.max {
		return 0, false
	}
	id := flowq.FlowID(c.ids.Len())
	c.ids.Insert(k, id+1)
	return id, true
}

// Flows returns the number of allocated flows.
func (c *Classifier) Flows() int { return c.ids.Len() }

// Lookup returns the FlowID without allocating.
func (c *Classifier) Lookup(t FiveTuple) (flowq.FlowID, bool) {
	id, ok := c.ids.Get(c.key(t))
	if !ok {
		return 0, false
	}
	return id - 1, true
}
