package backend_test

import (
	"fmt"
	"slices"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	_ "pieo/internal/refmodel" // registers "ref"
	_ "pieo/internal/shard"    // registers "sharded"
)

// invLCG is a tiny deterministic generator so every backend sees the
// identical operation stream.
type invLCG uint64

func (r *invLCG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

// stormBackend drives a deterministic mixed workload against b, calling
// backend.CheckInvariants periodically and returning the set of IDs
// still resident according to acceptance/delivery bookkeeping.
func stormBackend(t *testing.T, b backend.Backend, seed uint64, ops int) map[uint32]bool {
	t.Helper()
	rng := invLCG(seed)
	resident := make(map[uint32]bool)
	nextID := uint32(1)
	for op := 0; op < ops; op++ {
		switch rng.next() % 5 {
		case 0, 1:
			id := nextID
			nextID++
			ent := core.Entry{ID: id, Rank: rng.next() % 500, SendTime: clock.Time(rng.next() % 32)}
			if err := b.Enqueue(ent); err == nil {
				resident[id] = true
			}
		case 2:
			if ent, ok := b.Dequeue(clock.Time(rng.next() % 64)); ok {
				if !resident[ent.ID] {
					t.Fatalf("op %d: dequeued id %d that was never accepted", op, ent.ID)
				}
				delete(resident, ent.ID)
			}
		case 3:
			id := uint32(rng.next()%uint64(nextID)) + 1
			if ent, ok := b.DequeueFlow(id); ok {
				if !resident[ent.ID] {
					t.Fatalf("op %d: point-dequeued id %d that was never accepted", op, ent.ID)
				}
				delete(resident, ent.ID)
			}
		case 4:
			id := uint32(rng.next()%uint64(nextID)) + 1
			if _, err := backend.UpdateRank(b, id, rng.next()%500, clock.Time(rng.next()%32)); err != nil {
				t.Fatalf("op %d: UpdateRank(%d): %v", op, id, err)
			}
		}
		if op%512 == 0 {
			if err := backend.CheckInvariants(b); err != nil {
				t.Fatalf("invariants after op %d: %v", op, err)
			}
		}
	}
	return resident
}

// TestRegistryNames pins the registry: one exact list (core), its
// concurrent engine and the reference oracle — exact backends only. A
// name added or lost is a decision, not a side effect of linking a
// package.
func TestRegistryNames(t *testing.T) {
	want := []string{"core", "ref", "sharded"}
	if got := backend.Names(); !slices.Equal(got, want) {
		t.Fatalf("backend.Names() = %v, want %v", got, want)
	}
}

// TestCheckInvariantsAllBackends runs the structural validator against
// every registered backend through a deterministic mixed workload —
// including mid-stream checks, a post-storm check, and a post-drain
// check on the empty structure.
func TestCheckInvariantsAllBackends(t *testing.T) {
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := backend.New(name, 256)
			if err != nil {
				t.Fatalf("construct: %v", err)
			}
			resident := stormBackend(t, b, 9, 6000)
			if err := backend.CheckInvariants(b); err != nil {
				t.Fatalf("post-storm invariants: %v", err)
			}
			if b.Len() != len(resident) {
				t.Fatalf("backend holds %d, bookkeeping says %d", b.Len(), len(resident))
			}
			for b.Len() > 0 {
				if _, ok := b.Dequeue(clock.Time(1 << 60)); !ok {
					t.Fatalf("drain stalled with %d resident", b.Len())
				}
			}
			if err := backend.CheckInvariants(b); err != nil {
				t.Fatalf("post-drain invariants: %v", err)
			}
		})
	}
}

// TestRangedStormAllBackends drives a banded workload — the access
// pattern of the partitioned hierarchy — against every registered
// backend: IDs are assigned to four disjoint bands and every extraction
// is a DequeueRange over one band. Asserts no cross-band leakage, exact
// per-band (per-logical-node) conservation against a reference model,
// and structural invariants throughout.
func TestRangedStormAllBackends(t *testing.T) {
	const bands = 4
	const bandWidth = 1 << 16
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := backend.New(name, 1024)
			if err != nil {
				t.Fatalf("construct: %v", err)
			}
			rng := invLCG(21)
			resident := make([]map[uint32]core.Entry, bands)
			next := make([]uint32, bands)
			for i := range resident {
				resident[i] = make(map[uint32]core.Entry)
			}
			for op := 0; op < 8000; op++ {
				band := int(rng.next() % bands)
				lo := uint32(band * bandWidth)
				switch rng.next() % 4 {
				case 0, 1: // enqueue into the band
					id := lo + next[band]
					next[band]++
					ent := core.Entry{ID: id, Rank: rng.next() % 500, SendTime: clock.Time(rng.next() % 32)}
					if err := b.Enqueue(ent); err == nil {
						resident[band][id] = ent
					}
				case 2: // ranged dequeue over the band
					now := clock.Time(rng.next() % 64)
					ent, ok := b.DequeueRange(now, lo, lo+bandWidth-1)
					if !ok {
						continue
					}
					model, mine := resident[band][ent.ID]
					if !mine {
						t.Fatalf("op %d: DequeueRange[%d] leaked id %d (not this band's)", op, band, ent.ID)
					}
					if model != ent {
						t.Fatalf("op %d: band %d returned %+v, model holds %+v", op, band, ent, model)
					}
					if !ent.Eligible(now) {
						t.Fatalf("op %d: band %d returned ineligible %+v at %d", op, band, ent, now)
					}
					delete(resident[band], ent.ID)
				case 3: // re-rank a band resident
					if len(resident[band]) == 0 {
						continue
					}
					var id uint32
					for k := range resident[band] {
						id = k
						break
					}
					ent := resident[band][id]
					ent.Rank = rng.next() % 500
					ent.SendTime = clock.Time(rng.next() % 32)
					if ok, err := backend.UpdateRank(b, id, ent.Rank, ent.SendTime); err != nil {
						t.Fatalf("op %d: UpdateRank(%d): %v", op, id, err)
					} else if !ok {
						t.Fatalf("op %d: UpdateRank missed resident id %d", op, id)
					}
					resident[band][id] = ent
				}
				if op%1024 == 0 {
					if err := backend.CheckInvariants(b); err != nil {
						t.Fatalf("invariants after op %d: %v", op, err)
					}
				}
			}
			// Per-band conservation: ranged drain must return exactly the
			// band's model, in rank order, and nothing else.
			for band := 0; band < bands; band++ {
				lo := uint32(band * bandWidth)
				lastRank := uint64(0)
				for len(resident[band]) > 0 {
					ent, ok := b.DequeueRange(clock.Time(1<<60), lo, lo+bandWidth-1)
					if !ok {
						t.Fatalf("band %d drain stalled with %d resident", band, len(resident[band]))
					}
					if ent.Rank < lastRank {
						t.Fatalf("band %d drain out of rank order: %d after %d", band, ent.Rank, lastRank)
					}
					lastRank = ent.Rank
					if _, mine := resident[band][ent.ID]; !mine {
						t.Fatalf("band %d drain leaked id %d", band, ent.ID)
					}
					delete(resident[band], ent.ID)
				}
				if _, ok := b.DequeueRange(clock.Time(1<<60), lo, lo+bandWidth-1); ok {
					t.Fatalf("band %d over-delivered past its model", band)
				}
			}
			if b.Len() != 0 {
				t.Fatalf("backend holds %d after every band drained", b.Len())
			}
			if err := backend.CheckInvariants(b); err != nil {
				t.Fatalf("post-drain invariants: %v", err)
			}
		})
	}
}

// TestShardBackendDequeueRangeBelowSeq exercises the seq-aware ranged
// select the sharded engine's tournament drives, directly on a core.List
// shaped like one of its shards: the peek/take split on the rank limit,
// exact (rank, seq) winner selection within a band, stat-free peeks, and
// per-band conservation.
func TestShardBackendDequeueRangeBelowSeq(t *testing.T) {
	const bands = 3
	const bandWidth = 1 << 10
	t.Run("core", func(t *testing.T) {
		// Capacity 4096 spread over 8 shards: S = ⌈√512⌉.
		sb := core.NewWithSublistSize(4096, 23)
		rng := invLCG(33)
		type stamped struct {
			e   core.Entry
			seq uint64
		}
		resident := make([]map[uint32]stamped, bands)
		next := make([]uint32, bands)
		for i := range resident {
			resident[i] = make(map[uint32]stamped)
		}
		var seq uint64
		for op := 0; op < 6000; op++ {
			band := int(rng.next() % bands)
			lo := uint32(band * bandWidth)
			hi := lo + bandWidth - 1
			switch rng.next() % 4 {
			case 0, 1: // seq-stamped insert
				id := lo + next[band]%bandWidth
				next[band]++
				if _, dup := resident[band][id]; dup {
					continue
				}
				seq++
				ent := core.Entry{ID: id, Rank: rng.next() % 200, SendTime: clock.Time(rng.next() % 16)}
				if err := sb.EnqueueSeq(ent, seq); err != nil {
					continue
				}
				resident[band][id] = stamped{ent, seq}
			case 2: // ranged below-seq: compare against the model's exact winner
				now := clock.Time(rng.next() % 24)
				var want stamped
				found := false
				for _, s := range resident[band] {
					if s.e.SendTime > now {
						continue
					}
					if !found || s.e.Rank < want.e.Rank || (s.e.Rank == want.e.Rank && s.seq < want.seq) {
						want = s
						found = true
					}
				}
				limit := rng.next() % 300
				before := sb.Stats()
				e, gotSeq, eligible, taken := sb.DequeueRangeBelowSeq(now, lo, hi, limit)
				if eligible != found {
					t.Fatalf("op %d: band %d eligible=%v, model says %v", op, band, eligible, found)
				}
				if !eligible {
					continue
				}
				if e != want.e || gotSeq != want.seq {
					t.Fatalf("op %d: band %d returned (%+v, seq %d), model's winner (%+v, seq %d)",
						op, band, e, gotSeq, want.e, want.seq)
				}
				if wantTake := want.e.Rank < limit; taken != wantTake {
					t.Fatalf("op %d: rank %d limit %d: taken=%v, want %v", op, band, limit, taken, wantTake)
				}
				if taken {
					delete(resident[band], e.ID)
				} else if sb.Stats() != before {
					t.Fatalf("op %d: pure peek charged stats: %+v -> %+v", op, before, sb.Stats())
				}
			case 3: // seq-restamping re-rank
				if len(resident[band]) == 0 {
					continue
				}
				var id uint32
				for k := range resident[band] {
					id = k
					break
				}
				seq++
				s := resident[band][id]
				s.e.Rank = rng.next() % 200
				s.e.SendTime = clock.Time(rng.next() % 16)
				s.seq = seq
				if !sb.UpdateRankSeq(id, s.e.Rank, s.e.SendTime, seq) {
					t.Fatalf("op %d: UpdateRankSeq missed resident id %d", op, id)
				}
				resident[band][id] = s
			}
		}
		if err := sb.CheckInvariants(); err != nil {
			t.Fatalf("post-storm invariants: %v", err)
		}
		// Per-band conservation: drain each band with take-everything
		// limits; each must yield exactly its model.
		totalModel := 0
		for band := 0; band < bands; band++ {
			lo := uint32(band * bandWidth)
			totalModel += len(resident[band])
			for len(resident[band]) > 0 {
				e, _, eligible, taken := sb.DequeueRangeBelowSeq(clock.Time(1<<60), lo, lo+bandWidth-1, ^uint64(0))
				if !eligible || !taken {
					t.Fatalf("band %d drain stalled with %d resident", band, len(resident[band]))
				}
				if _, mine := resident[band][e.ID]; !mine {
					t.Fatalf("band %d drain leaked id %d", band, e.ID)
				}
				delete(resident[band], e.ID)
			}
		}
		if sb.Len() != 0 {
			t.Fatalf("list holds %d after all bands drained", sb.Len())
		}
	})
}

// TestCheckInvariantsPostFault repeats the sweep with the fault-injection
// wrapper interposed: injected errors and capacity squeezes must leave
// every backend structurally clean, because a shed arrival never touches
// the inner structure.
func TestCheckInvariantsPostFault(t *testing.T) {
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			inner, err := backend.New(name, 256)
			if err != nil {
				t.Fatalf("construct: %v", err)
			}
			inj := faultinject.NewInjector(faultinject.Plan{Seed: 77, ErrorEvery: 17, SqueezeEvery: 29, SqueezeLen: 3})
			b := faultinject.Wrap(inner, inj)
			stormBackend(t, b, 13, 6000)
			inj.Disarm()
			if err := backend.CheckInvariants(inner); err != nil {
				t.Fatalf("post-fault invariants: %v", err)
			}
			if inj.Stats().Injected == 0 || inj.Stats().Squeezes == 0 {
				t.Fatalf("fault schedules never fired on %s: %+v", name, inj.Stats())
			}
			if got, wantLen := b.Len(), inner.Len(); got != wantLen {
				t.Fatalf("wrapper Len %d != inner Len %d", got, wantLen)
			}
			_ = fmt.Sprintf("%v", b.DeclaredDrops()) // drop log must be readable post-storm
		})
	}
}
