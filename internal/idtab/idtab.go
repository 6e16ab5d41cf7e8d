// Package idtab is the open-addressed id → state table behind every
// per-packet lookup by flow id or 5-tuple. Slots hold a key and a value
// side by side, probed linearly from the top bits of the key's hash, at
// most half full, so an operation touches one cache line in the common
// case; the zero value marks a slot empty, so a slot is no wider than
// its key and value.
package idtab

import (
	"fmt"
	"math/bits"
)

// Key is a table key: comparable, with a hash whose top bits pick the
// key's home slot.
type Key interface {
	comparable
	Hash() uint64
}

// ID is a 32-bit id key: a flow id or a list element id.
type ID uint32

// flowHashMul is 2^64/φ. The product of a 32-bit id with it, taken from
// the top, spreads every arithmetic progression of ids — sequential IDs,
// any stride — almost evenly over the table (the three-distance theorem;
// φ is the worst-approximable ratio), and a 64-bit multiplier has no
// 32-bit stride that undoes it.
const flowHashMul = 0x9E3779B97F4A7C15

// Hash is the Fibonacci hash id·2^64/φ.
func (id ID) Hash() uint64 { return uint64(id) * flowHashMul }

// Table maps keys to values; a value must not be zero.
type Table[K Key, V comparable] struct {
	slots []slot[K, V] // len is a power of two
	shift uint8        // 64 - log2(len(slots)): hash bits kept
	n     int          // occupied slots; n <= len(slots)/2
}

type slot[K Key, V comparable] struct {
	key K
	val V // the zero V marks the slot empty
}

// New returns a table sized so that hint keys fill at most half of it,
// and at least 8 slots. Insert doubles it as keys arrive beyond that.
func New[K Key, V comparable](hint int) Table[K, V] {
	logSlots := max(3, bits.Len(uint(2*max(hint, 1)-1)))
	return Table[K, V]{slots: make([]slot[K, V], 1<<logSlots), shift: uint8(64 - logSlots)}
}

func (t *Table[K, V]) home(k K) uint { return uint(k.Hash() >> t.shift) }

// find walks k's probe sequence. It returns the slot holding k, or with
// ok false the empty slot that ends the sequence — where k would be
// inserted.
func (t *Table[K, V]) find(k K) (i uint, ok bool) {
	var empty V
	mask := uint(len(t.slots) - 1)
	for i = t.home(k); t.slots[i].val != empty; i = (i + 1) & mask {
		if t.slots[i].key == k {
			return i, true
		}
	}
	return i, false
}

// Get returns the value recorded for k; ok is false, and the value
// zero, when k is absent.
func (t *Table[K, V]) Get(k K) (v V, ok bool) {
	i, ok := t.find(k)
	return t.slots[i].val, ok
}

// Insert records k → v unless k is already present, in one probe: the
// walk that proves k absent ends on the slot that takes it. It reports
// whether the key was inserted.
func (t *Table[K, V]) Insert(k K, v V) bool {
	i, dup := t.find(k)
	if dup {
		return false
	}
	if 2*(t.n+1) > len(t.slots) {
		// Double and look for the free slot again: amortised O(1), and
		// never once the table has reached its peak occupancy.
		t.grow()
		i, _ = t.find(k)
	}
	t.slots[i] = slot[K, V]{key: k, val: v}
	t.n++
	return true
}

// Set overwrites the value of k, which must be present.
func (t *Table[K, V]) Set(k K, v V) {
	i, ok := t.find(k)
	if !ok {
		panic(fmt.Sprintf("idtab: Set of absent key %v", k))
	}
	t.slots[i].val = v
}

// Delete removes k, reporting whether it was present. The slots that
// follow the hole in its probe cluster shift back into it, each only if
// the hole lies on its own probe path (at or after its home slot), so
// every remaining key stays reachable and no tombstone is left: the
// table's state depends only on the keys it holds, and fresh keys
// inserted forever (never-reused packet IDs) leave no residue.
func (t *Table[K, V]) Delete(k K) bool {
	i, ok := t.find(k)
	if !ok {
		return false
	}
	var empty V
	mask := uint(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].val != empty; j = (j + 1) & mask {
		if s := t.slots[j]; (j-t.home(s.key))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = slot[K, V]{}
	t.n--
	return true
}

// grow doubles the slot array and reinserts every key.
func (t *Table[K, V]) grow() {
	old := t.slots
	t.slots, t.shift = make([]slot[K, V], 2*len(old)), t.shift-1
	var empty V
	for _, s := range old {
		if s.val != empty {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}

// Len returns the number of keys.
func (t *Table[K, V]) Len() int { return t.n }

// Slots returns the size of the slot array.
func (t *Table[K, V]) Slots() int { return len(t.slots) }

// Probes returns the total and the longest, over every key, of the
// slots a lookup of that key inspects: 1 for a key in its home slot.
func (t *Table[K, V]) Probes() (total, longest int) {
	var empty V
	for i, s := range t.slots {
		if s.val != empty {
			d := int((uint(i)-t.home(s.key))&uint(len(t.slots)-1)) + 1
			total, longest = total+d, max(longest, d)
		}
	}
	return total, longest
}

// Check validates the table's structure: the geometry, the half-full
// bound that keeps probes terminating, that every key is reachable — no
// empty slot between a key's home and where it sits — and the count.
func (t *Table[K, V]) Check() error {
	n := len(t.slots)
	if n < 8 || n&(n-1) != 0 || n != 1<<(64-t.shift) {
		return fmt.Errorf("idtab geometry: %d slots, shift %d", n, t.shift)
	}
	if 2*t.n > n {
		return fmt.Errorf("idtab holds %d keys in %d slots, over half full", t.n, n)
	}
	var empty V
	occupied := 0
	for i, s := range t.slots {
		if s.val == empty {
			continue
		}
		occupied++
		for j := t.home(s.key); j != uint(i); j = (j + 1) & uint(n-1) {
			if t.slots[j].val == empty {
				return fmt.Errorf("idtab: key %v at slot %d is cut off from its home %d by empty slot %d", s.key, i, t.home(s.key), j)
			}
		}
	}
	if occupied != t.n {
		return fmt.Errorf("idtab counts %d keys, %d slots occupied", t.n, occupied)
	}
	return nil
}
