package core

import (
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/idtab"
)

// TestArenaGrowsByChunks runs a list through two and a half chunks of
// residents, checking the invariants after every operation. The first
// chunk doubles up to chunkLen; from then on growth appends a chunk,
// every chunk but the last — the capacity's remainder — is chunkLen
// slots, and no resident's element moves: its slot has the same address
// after every append. Handles freed in the first chunk after the second
// is appended go to the head of the free chain, so the next arrivals take
// them before any slot of the new chunk.
func TestArenaGrowsByChunks(t *testing.T) {
	const capacity = 2*chunkLen + chunkLen/2
	l := New(capacity)
	rng := rand.New(rand.NewSource(1))
	slot := func(id uint32) *element {
		v, ok := l.flows.Get(idtab.ID(id))
		if !ok {
			t.Fatalf("id %d not queued", id)
		}
		return l.arena.at(v - 1)
	}
	check := func(op string) {
		t.Helper()
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("after %s at %d residents: %v", op, l.Len(), err)
		}
	}
	// addr holds the slot of every resident queued since the first chunk
	// reached its full length.
	addr := map[uint32]*element{}
	next := uint32(0)
	enq := func() {
		t.Helper()
		chunks := len(l.arena)
		id := next
		next++
		// send_time follows rank, so the eligibility sublists are in rank
		// order and CheckInvariants' sort of them is a linear pass.
		r := uint64(rng.Intn(1 << 20))
		e := Entry{ID: id, Rank: r, SendTime: clock.Time(r >> 10)}
		if err := l.Enqueue(e); err != nil {
			t.Fatal(err)
		}
		check("enqueue")
		if len(l.arena) != chunks {
			for id, p := range addr {
				if slot(id) != p {
					t.Fatalf("appending chunk %d moved id %d's element", len(l.arena)-1, id)
				}
			}
		}
		if len(l.arena[0]) == chunkLen {
			addr[id] = slot(id)
		}
	}
	deq := func(id uint32) {
		t.Helper()
		if _, ok := l.DequeueFlow(id); !ok {
			t.Fatalf("dequeue(f) of id %d missed", id)
		}
		delete(addr, id)
		check("dequeue(f)")
	}

	for l.Len() < chunkLen+100 {
		enq()
	}
	if len(l.arena) != 2 || len(l.arena[0]) != chunkLen {
		t.Fatalf("%d residents in %d chunks (first of %d slots), want 2 chunks, the first full",
			l.Len(), len(l.arena), len(l.arena[0]))
	}
	// Free every seventh handle of the first chunk; the arrivals that
	// follow reuse exactly those, last freed first.
	var freed []uint32
	for id := uint32(0); id < chunkLen; id += 7 {
		v, _ := l.flows.Get(idtab.ID(id))
		freed = append(freed, v-1)
		deq(id)
	}
	for i := len(freed) - 1; i >= 0; i-- {
		enq()
		if v, _ := l.flows.Get(idtab.ID(next - 1)); v-1 != freed[i] {
			t.Fatalf("arrival took handle %d, want freed handle %d", v-1, freed[i])
		}
	}
	// Fill to capacity, with a dequeue after every eighth arrival and a
	// dequeue(f) of a resident of the first chunk after every sixteenth,
	// so freed slots are reused while the later chunks fill.
	victim := uint32(1)
	for i := 0; l.Len() < capacity; i++ {
		enq()
		if i%8 == 7 {
			if e, ok := l.Dequeue(clock.Never - 1); ok {
				delete(addr, e.ID)
				check("dequeue")
			}
		}
		for ; i%16 == 15 && victim < chunkLen; victim++ {
			if l.Contains(victim) { // ids below chunkLen filled the first chunk
				deq(victim)
				break
			}
		}
	}
	if len(l.arena) != 3 || len(l.arena[2]) != chunkLen/2 {
		t.Fatalf("full list of %d in %d chunks, last of %d slots; want 3 chunks, the last sized to the remainder %d",
			capacity, len(l.arena), len(l.arena[len(l.arena)-1]), chunkLen/2)
	}
	if err := l.Enqueue(Entry{ID: next}); err != ErrFull {
		t.Fatalf("enqueue on a full list: %v, want ErrFull", err)
	}
}
