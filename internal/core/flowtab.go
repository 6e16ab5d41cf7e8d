package core

import (
	"fmt"
	"math/bits"
)

// flowTab is the list's flow index — the per-flow state of §5.2
// Dequeue(f): flow id → id of the sublist holding that flow's element.
// Every enqueue inserts a key, every extraction deletes one, and every
// Invariant-1 element move overwrites one, so the index is on the path
// of every operation and its memory behaviour is the list's.
//
// It is an open-addressed table of 8-byte slots (eight to a cache line)
// probed linearly from a multiplicative hash, kept at most half full. A
// lookup, insert or delete touches one cache line in the common case.
// Deletion shifts the tail of the probe cluster back over the hole, so
// there are no tombstones: the table's state depends only on the keys it
// holds, and a workload that inserts fresh keys forever (never-reused
// packet IDs) leaves no residue behind.
type flowTab struct {
	slots []flowSlot // len is a power of two
	mask  uint32     // len(slots) - 1
	shift uint8      // 64 - log2(len(slots)): hash bits kept
	n     int        // occupied slots; n <= len(slots)/2
}

type flowSlot struct {
	id  uint32
	sid uint32 // sublist id + 1; 0 marks the slot empty
}

// flowHashMul is 2^64/φ. The product of a 32-bit id with it, taken from
// the top, spreads every arithmetic progression of ids — sequential IDs,
// any stride — almost evenly over the table (the three-distance theorem;
// φ is the worst-approximable ratio), and a 64-bit multiplier has no
// 32-bit stride that undoes it.
const flowHashMul = 0x9E3779B97F4A7C15

// newFlowTab sizes the table so that hint keys fill at most half of it.
// A list starts at the minimum (hint 0) and lets insert double the table
// as residents arrive.
func newFlowTab(hint int) flowTab {
	var t flowTab
	t.resize(max(3, bits.Len(uint(2*max(hint, 1)-1))))
	return t
}

// resize replaces the slot array with an empty one of 2^logSlots slots.
func (t *flowTab) resize(logSlots int) {
	t.slots = make([]flowSlot, 1<<logSlots)
	t.mask = uint32(len(t.slots) - 1)
	t.shift = uint8(64 - logSlots)
}

func (t *flowTab) home(id uint32) uint32 {
	return uint32((uint64(id) * flowHashMul) >> t.shift)
}

// find walks id's probe sequence. It returns the slot holding id, or
// with ok false the empty slot that ends the sequence — where id would
// be inserted.
func (t *flowTab) find(id uint32) (i uint32, ok bool) {
	for i = t.home(id); t.slots[i].sid != 0; i = (i + 1) & t.mask {
		if t.slots[i].id == id {
			return i, true
		}
	}
	return i, false
}

// lookup returns the sublist id recorded for id.
func (t *flowTab) lookup(id uint32) (sid int, ok bool) {
	i, ok := t.find(id)
	return int(t.slots[i].sid) - 1, ok
}

// insert records id → sid unless id is already present, in one probe:
// the walk that proves id absent ends on the slot that takes it. It
// reports whether the key was inserted.
func (t *flowTab) insert(id uint32, sid int) bool {
	i, dup := t.find(id)
	if dup {
		return false
	}
	if 2*(t.n+1) > len(t.slots) {
		// Double and look for the free slot again: amortised O(1), and
		// never once the table has reached the list's peak occupancy.
		t.grow()
		i, _ = t.find(id)
	}
	t.slots[i] = flowSlot{id: id, sid: uint32(sid) + 1}
	t.n++
	return true
}

// move overwrites the sublist recorded for a resident id — the
// Invariant-1 repairs that carry an element to a neighbouring sublist.
func (t *flowTab) move(id uint32, sid int) {
	i, ok := t.find(id)
	if !ok {
		panic(fmt.Sprintf("pieo: flow index lost resident id %d", id))
	}
	t.slots[i].sid = uint32(sid) + 1
}

// remove deletes id, reporting whether it was present. The slots that
// follow the hole in its probe cluster shift back into it, each only if
// the hole lies on its own probe path (at or after its home slot), so
// every remaining key stays reachable and no tombstone is left.
func (t *flowTab) remove(id uint32) bool {
	i, ok := t.find(id)
	if !ok {
		return false
	}
	for j := (i + 1) & t.mask; t.slots[j].sid != 0; j = (j + 1) & t.mask {
		s := t.slots[j]
		if (j-t.home(s.id))&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = flowSlot{}
	t.n--
	return true
}

// grow doubles the slot array and reinserts every key.
func (t *flowTab) grow() {
	old := t.slots
	t.resize(bits.Len(uint(len(old))))
	for _, s := range old {
		if s.sid != 0 {
			i, _ := t.find(s.id)
			t.slots[i] = s
		}
	}
}

// check validates the table's own structure: the occupancy count, the
// half-full bound that keeps probes terminating, and that every key is
// reachable — no empty slot between a key's home and where it sits.
func (t *flowTab) check() error {
	if len(t.slots)&(len(t.slots)-1) != 0 || int(t.mask) != len(t.slots)-1 || len(t.slots) != 1<<(64-t.shift) {
		return fmt.Errorf("flow index geometry: %d slots, mask %#x, shift %d", len(t.slots), t.mask, t.shift)
	}
	if t.n < 0 || 2*t.n > len(t.slots) {
		return fmt.Errorf("flow index holds %d keys in %d slots, over half full", t.n, len(t.slots))
	}
	// Start the cyclic walk just past an empty slot (one exists: the
	// table is at most half full), so every cluster is seen whole.
	start := 0
	for start < len(t.slots) && t.slots[start].sid != 0 {
		start++
	}
	if start == len(t.slots) {
		return fmt.Errorf("flow index counts %d keys but all %d slots are occupied", t.n, len(t.slots))
	}
	occupied, run := 0, uint32(0) // run: occupied slots since the last empty one
	for k := 1; k <= len(t.slots); k++ {
		i := uint32(start+k) & t.mask
		s := t.slots[i]
		if s.sid == 0 {
			run = 0
			continue
		}
		if d := (i - t.home(s.id)) & t.mask; d > run {
			return fmt.Errorf("flow index: id %d sits %d slots past its home with an empty slot between", s.id, d)
		}
		occupied++
		run++
	}
	if occupied != t.n {
		return fmt.Errorf("flow index counts %d keys, %d slots occupied", t.n, occupied)
	}
	return nil
}
