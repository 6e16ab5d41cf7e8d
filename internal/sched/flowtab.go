package sched

import (
	"math/bits"

	"pieo/internal/flowq"
)

// flowTable is the scheduler's FlowID → *Flow index. Every arrival and
// every dequeue resolves a flow through it, so it is on the path of
// every packet.
//
// It is an open-addressed table probed linearly from a multiplicative
// hash and kept at most half full — the scheme of core's flow index
// without deletion, because the scheduler never forgets a flow. IDs are
// arbitrary sparse uint32s; nothing assumes they are dense. Flow structs
// are carved from slabs, so the flows a classifier allocates back to
// back sit back to back in memory, and a *Flow stays valid for the
// scheduler's lifetime (slabs are never moved, only added).
type flowTable struct {
	slots []flowSlot // len is a power of two; a nil f marks a slot empty
	shift uint8      // 64 - log2(len(slots)): hash bits kept
	all   []*Flow    // every flow, in creation order
	slab  []Flow     // unused tail of the newest slab
}

type flowSlot struct {
	id flowq.FlowID
	f  *Flow
}

// flowHashMul is 2^64/φ: the top bits of id·flowHashMul spread every
// arithmetic progression of IDs — sequential, or any stride — almost
// evenly over the table, and a 64-bit multiplier has no 32-bit stride
// that undoes it (see core/flowtab.go).
const flowHashMul = 0x9E3779B97F4A7C15

const (
	minFlowSlots = 16
	maxFlowSlab  = 512 // flows per slab, once the table has that many
)

// find walks id's probe sequence and returns the slot holding id, or the
// empty slot that ends the sequence — where id would be inserted.
func (t *flowTable) find(id flowq.FlowID) *flowSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (uint64(id) * flowHashMul) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.f == nil || s.id == id {
			return s
		}
	}
}

// lookup returns the flow recorded for id, nil if there is none.
func (t *flowTable) lookup(id flowq.FlowID) *Flow {
	if len(t.slots) == 0 {
		return nil
	}
	return t.find(id).f
}

// insert adds a zeroed flow for id, which must be absent, and returns it.
func (t *flowTable) insert(id flowq.FlowID) *Flow {
	if 2*(len(t.all)+1) > len(t.slots) {
		t.grow()
	}
	if len(t.slab) == 0 {
		// Each slab matches the flows so far, so the slabs' unused tail is
		// at most half the flows while the table is small and at most
		// maxFlowSlab flows once it is large.
		t.slab = make([]Flow, min(max(len(t.all), 8), maxFlowSlab))
	}
	f := &t.slab[0]
	t.slab = t.slab[1:]
	*t.find(id) = flowSlot{id: id, f: f}
	t.all = append(t.all, f)
	return f
}

// grow doubles the slot array and reinserts every flow.
func (t *flowTable) grow() {
	old := t.slots
	t.slots = make([]flowSlot, max(minFlowSlots, 2*len(old)))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, s := range old {
		if s.f != nil {
			*t.find(s.id) = s
		}
	}
}
