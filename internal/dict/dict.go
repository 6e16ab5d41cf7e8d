// Package dict realizes §8 of the paper: PIEO viewed as an abstract
// dictionary data type. The ordered list maintains (key, value) pairs
// indexed by key (the PIEO rank), supporting search, insert, delete and
// update in the same O(1)-model time as the scheduling operations, plus
// the range filter (a <= key <= b) that hashtables and search trees make
// expensive — the paper argues this makes PIEO "a potential alternative
// to the traditional hardware implementations of the dictionary data
// type".
//
// Keys are unique uint64s; values are opaque. Internally each pair is
// one PIEO element with rank = key; the send_time channel is unused
// (clock.Never) since dictionary lookups are not time-filtered.
//
// The dictionary builds on *core.List directly: the §8 queries
// (MinRankAtLeast, DequeueRankRange) are the list's own, outside the
// backend contract. Its two Go maps (values, and ids from key to
// element) are off the packet path: the dictionary is driven by library
// callers through the facade's Dict (control-plane state, not
// per-packet state), never by internal/sched or internal/hier, so a
// map's hashing and growth cost no scheduling decision.
package dict

import (
	"fmt"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// Dict is a PIEO-backed ordered dictionary.
type Dict[V any] struct {
	list   *core.List
	values map[uint32]V      // element id -> value
	ids    map[uint64]uint32 // key -> element id
	nextID uint32
}

// New creates a dictionary holding up to capacity pairs over the
// paper-exact list backend.
func New[V any](capacity int) *Dict[V] {
	return NewOn[V](core.New(capacity))
}

// NewOn creates a dictionary over an empty list (e.g. one built with an
// explicit sublist geometry). Capacity is the list's.
func NewOn[V any](list *core.List) *Dict[V] {
	return &Dict[V]{
		list:   list,
		values: make(map[uint32]V),
		ids:    make(map[uint64]uint32),
	}
}

// Len returns the number of stored pairs.
func (d *Dict[V]) Len() int { return d.list.Len() }

// Insert stores (key, value). It returns false when the key already
// exists (use Update) or the dictionary is full.
func (d *Dict[V]) Insert(key uint64, value V) bool {
	if _, exists := d.ids[key]; exists {
		return false
	}
	d.nextID++
	id := d.nextID
	if err := d.list.Enqueue(core.Entry{ID: id, Rank: key, SendTime: clock.Never}); err != nil {
		return false
	}
	d.ids[key] = id
	d.values[id] = value
	return true
}

// Search returns the value stored under key.
func (d *Dict[V]) Search(key uint64) (V, bool) {
	id, exists := d.ids[key]
	if !exists {
		var zero V
		return zero, false
	}
	return d.values[id], true
}

// Delete removes key and returns its value.
func (d *Dict[V]) Delete(key uint64) (V, bool) {
	id, exists := d.ids[key]
	if !exists {
		var zero V
		return zero, false
	}
	if _, ok := d.list.DequeueFlow(id); !ok {
		panic(fmt.Sprintf("dict: index desynchronized for key %d", key))
	}
	v := d.values[id]
	delete(d.values, id)
	delete(d.ids, key)
	return v, true
}

// Update replaces the value under an existing key. It returns false when
// the key does not exist.
func (d *Dict[V]) Update(key uint64, value V) bool {
	id, exists := d.ids[key]
	if !exists {
		return false
	}
	d.values[id] = value
	return true
}

// Min returns the smallest key and its value.
func (d *Dict[V]) Min() (uint64, V, bool) {
	e, ok := d.list.MinRankAtLeast(0)
	if !ok {
		var zero V
		return 0, zero, false
	}
	return e.Rank, d.values[e.ID], true
}

// Ceiling returns the smallest key >= lo and its value — the successor
// query search trees provide and hashtables cannot.
func (d *Dict[V]) Ceiling(lo uint64) (uint64, V, bool) {
	e, ok := d.list.MinRankAtLeast(lo)
	if !ok {
		var zero V
		return 0, zero, false
	}
	return e.Rank, d.values[e.ID], true
}

// Range calls fn for every pair with lo <= key <= hi in ascending key
// order; fn returning false stops the scan. This is the §8 range filter.
func (d *Dict[V]) Range(lo, hi uint64, fn func(key uint64, value V) bool) {
	for _, e := range d.list.Snapshot() {
		if e.Rank < lo {
			continue
		}
		if e.Rank > hi {
			return
		}
		if !fn(e.Rank, d.values[e.ID]) {
			return
		}
	}
}

// PopRange removes and returns the smallest key in [lo, hi] with its
// value — a destructive range extraction in O(1) model time.
func (d *Dict[V]) PopRange(lo, hi uint64) (uint64, V, bool) {
	e, ok := d.list.DequeueRankRange(lo, hi)
	if !ok {
		var zero V
		return 0, zero, false
	}
	v := d.values[e.ID]
	delete(d.values, e.ID)
	delete(d.ids, e.Rank)
	return e.Rank, v, true
}

// Keys returns all keys in ascending order.
func (d *Dict[V]) Keys() []uint64 {
	snap := d.list.Snapshot()
	keys := make([]uint64, len(snap))
	for i, e := range snap {
		keys[i] = e.Rank
	}
	return keys
}

// Stats exposes the underlying list's operation counters.
func (d *Dict[V]) Stats() backend.Stats { return backend.WrapCore(d.list).Stats() }
