package hier

import (
	"errors"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// fuzzLCG is a deterministic value source so the fuzz byte stream only
// has to choose operations, not encode every operand.
type fuzzLCG uint64

func (r *fuzzLCG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

// rank draws a policy rank: usually small, one time in eight within three
// of the rank-region boundary on either side, so the widest ranks that fit
// and the narrowest that do not both reach every partition.
func (r *fuzzLCG) rank() uint64 {
	if r.next()%8 == 0 {
		return rankMask - 2 + r.next()%6
	}
	return r.next() % 1000
}

// partModel is the reference model of one partition: resident ID ->
// entry, mirrored against the Partitioner on every operation.
type partModel struct {
	p  *Partition
	in map[uint32]core.Entry
}

// FuzzLogicalPartition interleaves the partition lifecycle (alloc, grow
// with relocation, split, retire) with data-path traffic (enqueue,
// rank update, ranged dequeue, point dequeue) against a per-partition
// reference model, over every registered exact backend. Invariants: a
// ranged dequeue never returns an element outside the partition's model
// (no cross-partition leakage), never misses when the model holds an
// eligible element, always returns the minimum eligible rank, and every
// partition's resident count matches its model exactly (per-logical-node
// conservation). Ranks are drawn up to and across the rank-region
// boundary: one that fits comes back from every dequeue exactly as the
// caller gave it — through Split, whose halves share a region, and
// relocating Grow, which keeps it — and one that does not is refused with
// ErrRankOverflow and changes nothing. The allocator's CheckInvariants
// (band tiling, wheel exactness, backend residency, stored region) runs
// throughout.
func FuzzLogicalPartition(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 1, 5, 2, 3, 1, 4, 5, 6, 7, 1, 1, 5, 5})
	f.Add(uint64(7), []byte{0, 0, 1, 1, 1, 3, 3, 2, 5, 5, 5, 4, 0, 1, 5})
	f.Add(uint64(42), []byte{1, 1, 1, 1, 2, 1, 1, 6, 6, 5, 3, 1, 5, 4, 0})

	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		rng := fuzzLCG(seed | 1)
		name := diffBackends[int(rng.next())%len(diffBackends)]
		be, err := backend.New(name, 4096)
		if err != nil {
			t.Fatalf("backend %q: %v", name, err)
		}
		pt := NewPartitioner(be)

		var parts []*partModel
		alloc := func(capacity int, wall bool) {
			p, err := pt.Alloc(capacity, wall)
			if err != nil {
				t.Fatalf("alloc %d: %v", capacity, err)
			}
			parts = append(parts, &partModel{p: p, in: make(map[uint32]core.Entry)})
		}
		alloc(4, true)
		alloc(8, false)

		total := func() int {
			n := 0
			for _, pm := range parts {
				n += len(pm.in)
			}
			return n
		}

		for opIdx, op := range ops {
			if len(parts) == 0 {
				alloc(1+int(rng.next()%8), rng.next()%2 == 0)
			}
			pm := parts[int(rng.next())%len(parts)]
			switch op % 8 {
			case 0: // alloc another partition
				if len(parts) < 64 {
					alloc(1+int(rng.next()%32), rng.next()%2 == 0)
				}
			case 1: // enqueue a fresh ID
				if total() >= 4000 {
					continue
				}
				id, ok := pm.p.NextID()
				if !ok {
					// Band full: grow it (possibly relocating residents).
					remap, err := pt.Grow(pm.p, pm.p.Cap()*2)
					if err != nil {
						t.Fatalf("grow: %v", err)
					}
					pm.applyRemap(remap)
					if id, ok = pm.p.NextID(); !ok {
						t.Fatalf("band still full after grow to %d", pm.p.Cap())
					}
				}
				e := core.Entry{ID: id, Rank: rng.rank(), SendTime: clock.Time(rng.next() % 64)}
				err := pt.Enqueue(pm.p, e)
				if e.Rank > rankMask {
					if !errors.Is(err, ErrRankOverflow) {
						t.Fatalf("enqueue id %d rank %#x: %v, want ErrRankOverflow", id, e.Rank, err)
					}
					break // refused: the conservation check below holds the books still
				}
				if err != nil {
					t.Fatalf("enqueue id %d: %v", id, err)
				}
				pm.in[id] = e
			case 2: // grow (often a no-op, sometimes a relocation)
				remap, err := pt.Grow(pm.p, pm.p.Cap()+1+int(rng.next()%64))
				if err != nil {
					t.Fatalf("grow: %v", err)
				}
				pm.applyRemap(remap)
			case 3: // split the band at its midpoint
				if pm.p.Cap() < 2 {
					continue
				}
				q, err := pt.Split(pm.p)
				if err != nil {
					t.Fatalf("split: %v", err)
				}
				if q.region != pm.p.region {
					t.Fatalf("split halves in regions %#x and %#x", pm.p.region, q.region)
				}
				qm := &partModel{p: q, in: make(map[uint32]core.Entry)}
				for id, e := range pm.in {
					if q.InBand(id) {
						qm.in[id] = e
						delete(pm.in, id)
					}
				}
				parts = append(parts, qm)
			case 4: // retire: drain and free the band
				pt.Retire(pm.p)
				for i, q := range parts {
					if q == pm {
						parts = append(parts[:i], parts[i+1:]...)
						break
					}
				}
			case 5: // ranged dequeue at a random instant
				now := clock.Time(rng.next() % 96)
				e, ok := pt.Dequeue(pm.p, now)
				minRank, hasElig := uint64(0), false
				for _, me := range pm.in {
					if me.SendTime <= now && (!hasElig || me.Rank < minRank) {
						minRank, hasElig = me.Rank, true
					}
				}
				if !ok {
					if hasElig {
						t.Fatalf("op %d: ranged dequeue missed eligible element (min rank %d) in [%d,%d] at %d",
							opIdx, minRank, pm.p.Lo(), pm.p.Hi(), now)
					}
					continue
				}
				me, mine := pm.in[e.ID]
				if !mine {
					t.Fatalf("op %d: ranged dequeue [%d,%d] leaked id %d (not in this partition's model)",
						opIdx, pm.p.Lo(), pm.p.Hi(), e.ID)
				}
				if me != e {
					t.Fatalf("op %d: dequeued %+v, model holds %+v", opIdx, e, me)
				}
				if !e.Eligible(now) {
					t.Fatalf("op %d: dequeued ineligible entry %+v at %d", opIdx, e, now)
				}
				if e.Rank != minRank {
					t.Fatalf("op %d: dequeued rank %d, model's min eligible rank is %d", opIdx, e.Rank, minRank)
				}
				delete(pm.in, e.ID)
			case 6: // rank/send-time update in place
				id, ok := pm.anyID(&rng)
				if !ok {
					continue
				}
				e := pm.in[id]
				e.Rank = rng.rank()
				e.SendTime = clock.Time(rng.next() % 64)
				ok, err := pt.UpdateRank(pm.p, id, e.Rank, e.SendTime)
				if e.Rank > rankMask {
					if ok || !errors.Is(err, ErrRankOverflow) {
						t.Fatalf("update id %d rank %#x = %v, %v, want ErrRankOverflow", id, e.Rank, ok, err)
					}
					break // refused: the model keeps the old rank and send_time
				}
				if err != nil {
					t.Fatalf("update id %d: %v", id, err)
				}
				if !ok {
					t.Fatalf("update id %d: partition claims non-resident, model disagrees", id)
				}
				pm.in[id] = e
			case 7: // point dequeue
				id, ok := pm.anyID(&rng)
				if !ok {
					// Non-resident point dequeue must miss cleanly.
					if _, hit := pt.DequeueID(pm.p, pm.p.Lo()); hit && len(pm.in) == 0 {
						t.Fatalf("op %d: point dequeue hit on empty partition", opIdx)
					}
					continue
				}
				e, hit := pt.DequeueID(pm.p, id)
				if !hit {
					t.Fatalf("op %d: point dequeue missed resident id %d", opIdx, id)
				}
				if e != pm.in[id] {
					t.Fatalf("op %d: point dequeue returned %+v, model holds %+v", opIdx, e, pm.in[id])
				}
				delete(pm.in, id)
			}
			// Per-partition conservation after every operation.
			for _, q := range parts {
				if q.p.Len() != len(q.in) {
					t.Fatalf("op %d: partition [%d,%d] holds %d, model %d",
						opIdx, q.p.Lo(), q.p.Hi(), q.p.Len(), len(q.in))
				}
			}
			if opIdx%32 == 0 {
				if err := pt.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", opIdx, err)
				}
			}
		}
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("final: %v", err)
		}
		if be.Len() != total() {
			t.Fatalf("backend holds %d, models %d", be.Len(), total())
		}
	})
}

// applyRemap rewrites the model's keys after a relocating Grow.
func (pm *partModel) applyRemap(remap map[uint32]uint32) {
	if remap == nil {
		return
	}
	moved := make(map[uint32]core.Entry, len(pm.in))
	for oldID, e := range pm.in {
		newID, ok := remap[oldID]
		if !ok {
			panic("grow remap missing a resident id")
		}
		e.ID = newID
		moved[newID] = e
	}
	pm.in = moved
}

// anyID returns a pseudo-randomly chosen resident ID of the partition.
func (pm *partModel) anyID(rng *fuzzLCG) (uint32, bool) {
	if len(pm.in) == 0 {
		return 0, false
	}
	k := int(rng.next()) % len(pm.in)
	for id := range pm.in {
		if k == 0 {
			return id, true
		}
		k--
	}
	return 0, false
}
