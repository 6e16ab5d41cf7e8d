package core

import "testing"

// FuzzFlowTab interprets the input as an operation stream over a small
// flow-id space on a list of 2-slot sublists, so that nearly every
// operation splits, merges or shifts a sublist and rewrites entries of
// the flow index (flow id -> sublist) while it collides, wraps and grows.
// After every operation the list's invariants — which include every
// resident resolving to its own sublist through the index and the
// index's own structure — hold, and the index agrees with a reference
// map on every key.
//
// An operation is three bytes: kind, flow id, rank. Kind bits 0-1 pick
// enqueue, re-rank (dequeue the flow and enqueue it at the new rank,
// which moves it between sublists) or dequeue of that flow; bit 2
// shifts the id by 24 bits, so ids differ only in bits the hash must
// fold down.
func FuzzFlowTab(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 0, 1, 0})
	f.Add([]byte("\x00\x10\x01\x00\x20\x02\x00\x30\x03\x02\x10\x00\x01\x20\x07\x03\x20\x00"))
	f.Add([]byte{4, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0, 4, 4, 0, 6, 0, 0, 6, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 48
		l := NewWithSublistSize(capacity, 2)
		ref := map[uint32]uint64{} // flow id -> rank of its resident entry
		enqueue := func(id uint32, rank uint64) {
			t.Helper()
			_, dup := ref[id]
			err := l.Enqueue(Entry{ID: id, Rank: rank})
			if want := dup || len(ref) == capacity; (err != nil) != want {
				t.Fatalf("Enqueue(%d) = %v with the flow present=%v, %d of %d residents", id, err, dup, len(ref), capacity)
			}
			if err == nil {
				ref[id] = rank
			}
		}
		dequeue := func(id uint32) {
			t.Helper()
			want, ok := ref[id]
			e, got := l.DequeueFlow(id)
			if got != ok || (ok && (e.ID != id || e.Rank != want)) {
				t.Fatalf("DequeueFlow(%d) = (%v,%v), want rank %d present=%v", id, e, got, want, ok)
			}
			delete(ref, id)
		}
		for ; len(data) >= 3; data = data[3:] {
			id := uint32(data[1])
			if data[0]&4 != 0 {
				id <<= 24
			}
			rank := uint64(data[2])
			switch data[0] & 3 {
			case 0:
				enqueue(id, rank)
			case 1:
				if _, ok := ref[id]; ok {
					dequeue(id)
				}
				enqueue(id, rank)
			default:
				dequeue(id)
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if l.Len() != len(ref) {
				t.Fatalf("Len = %d, reference holds %d", l.Len(), len(ref))
			}
			for id := range ref {
				if !l.Contains(id) {
					t.Fatalf("Contains(%d) = false for a resident flow", id)
				}
			}
		}
	})
}
