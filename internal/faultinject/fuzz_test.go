package faultinject_test

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
)

// FuzzChaosPlan fuzzes the fault schedule itself: whatever periods the
// fuzzer picks for injected errors and capacity squeezes, a bounded mixed
// workload through the wrapper over a core list must end with invariants
// intact and exact conservation — accepted equals delivered plus queued,
// and every refused arrival is a declared drop. The corpus seeds cover
// the fault-free plan, a dense plan, and a sparse one.
func FuzzChaosPlan(f *testing.F) {
	f.Add(uint64(1), uint16(7), uint16(11), uint16(900))
	f.Add(uint64(42), uint16(0), uint16(0), uint16(500))
	f.Add(uint64(7), uint16(3), uint16(5), uint16(1500))
	f.Fuzz(func(t *testing.T, seed uint64, errEvery, squeezeEvery, opsRaw uint16) {
		ops := int(opsRaw)%2000 + 200
		inj := faultinject.NewInjector(faultinject.Plan{
			Seed: seed ^ 0x9e3779b97f4a7c15, ErrorEvery: uint64(errEvery), SqueezeEvery: uint64(squeezeEvery),
		})
		b := faultinject.Wrap(backend.NewCoreList(256), inj)

		rng := lcg(seed | 1)
		accepted := make(map[uint32]bool)
		var delivered []core.Entry
		// A refused arrival must be a declared drop; one refused at the
		// list's real capacity may be one too (a squeeze can land there).
		mustDrop, mayDrop := make(map[uint32]bool), make(map[uint32]bool)
		nextID := uint32(1)
		for op := 0; op < ops; op++ {
			switch rng.next() % 4 {
			case 0, 1:
				id := nextID
				nextID++
				ent := core.Entry{ID: id, Rank: rng.next() % 100, SendTime: clock.Time(rng.next() % 8)}
				switch err := b.Enqueue(ent); err {
				case nil:
					accepted[id] = true
				case faultinject.ErrInjected:
					mustDrop[id] = true
				case core.ErrFull:
					if b.Len() < 256 {
						mustDrop[id] = true
					} else {
						mayDrop[id] = true
					}
				default:
					t.Fatalf("enqueue %v: %v", ent, err)
				}
			case 2:
				if ent, ok := b.Dequeue(clock.Time(rng.next() % 16)); ok {
					delivered = append(delivered, ent)
				}
			case 3:
				if ent, ok := b.DequeueFlow(uint32(rng.next()%uint64(nextID)) + 1); ok {
					delivered = append(delivered, ent)
				}
			}
		}

		inj.Disarm()
		must := 0
		for _, id := range b.DeclaredDrops() {
			if mustDrop[id] {
				must++
			} else if !mayDrop[id] {
				t.Fatalf("id %d declared dropped but never refused", id)
			}
		}
		if must != len(mustDrop) {
			t.Fatalf("%d of %d refused arrivals declared dropped", must, len(mustDrop))
		}
		auditConservation(t, b, accepted, delivered)
		drainAll(t, b)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("post-drain invariants: %v", err)
		}
	})
}
