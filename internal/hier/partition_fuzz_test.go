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
// entry, mirrored against the Partitioner on every operation, plus the
// number of band offsets the traffic has used so far.
type partModel struct {
	p    *Partition
	in   map[uint32]core.Entry
	used uint64
}

// minSendTime is the model's answer to Partition.MinSendTime: the
// smallest resident send_time.
func (pm *partModel) minSendTime() (clock.Time, bool) {
	best, ok := clock.Never, false
	for _, e := range pm.in {
		if !ok || e.SendTime < best {
			best, ok = e.SendTime, true
		}
	}
	return best, ok
}

// FuzzLogicalPartition interleaves band allocation with data-path traffic
// (enqueue of fresh, returning and already-resident IDs; ranged dequeue)
// against a per-partition reference model, over every registered exact
// backend. Invariants: a ranged dequeue never returns an element outside
// the partition's model (no cross-partition leakage), never misses when
// the model holds an eligible element, always returns the minimum eligible
// rank, and every partition's resident count matches its model exactly
// (per-logical-node conservation). Ranks are drawn up to and across the
// rank-region boundary: one that fits comes back from the dequeue exactly
// as the caller gave it, and one that does not is refused with
// ErrRankOverflow and changes nothing. Every partition's MinSendTime is
// its model's smallest resident send_time after every operation. The
// Partitioner's CheckInvariants
// (band tiling, heap exactness, backend residency, stored region) runs
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
		alloc := func(capacity int) {
			p, err := pt.Alloc(capacity)
			if err != nil {
				t.Fatalf("alloc %d: %v", capacity, err)
			}
			parts = append(parts, &partModel{p: p, in: make(map[uint32]core.Entry)})
		}
		alloc(4)
		alloc(8)

		total := func() int {
			n := 0
			for _, pm := range parts {
				n += len(pm.in)
			}
			return n
		}

		for opIdx, op := range ops {
			pm := parts[int(rng.next())%len(parts)]
			switch op % 4 {
			case 0: // alloc another band: usually small, sometimes far wider than its use
				if len(parts) < 256 {
					capacity := 1 + int(rng.next()%32)
					if rng.next()%8 == 0 {
						capacity <<= 16
					}
					alloc(capacity)
				}
			case 1, 2: // enqueue: a fresh ID, one that was dequeued earlier, or a resident one
				if total() >= 4000 {
					continue
				}
				off := rng.next() % (pm.used + 1)
				if off == pm.used {
					if off > uint64(pm.p.hi-pm.p.lo) {
						continue // band full
					}
					pm.used++
				}
				id := pm.p.lo + uint32(off)
				e := core.Entry{ID: id, Rank: rng.rank(), SendTime: clock.Time(rng.next() % 64)}
				err := pt.Enqueue(pm.p, e)
				if e.Rank > rankMask {
					if !errors.Is(err, ErrRankOverflow) {
						t.Fatalf("enqueue id %d rank %#x: %v, want ErrRankOverflow", id, e.Rank, err)
					}
					break // refused: the conservation check below holds the books still
				}
				if _, resident := pm.in[id]; resident {
					if !errors.Is(err, core.ErrDuplicate) {
						t.Fatalf("op %d: enqueue of resident id %d: %v, want ErrDuplicate", opIdx, id, err)
					}
					break // refused likewise
				}
				if err != nil {
					t.Fatalf("enqueue id %d: %v", id, err)
				}
				pm.in[id] = e
			case 3: // ranged dequeue at a random instant
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
							opIdx, minRank, pm.p.lo, pm.p.hi, now)
					}
					continue
				}
				me, mine := pm.in[e.ID]
				if !mine {
					t.Fatalf("op %d: ranged dequeue [%d,%d] leaked id %d (not in this partition's model)",
						opIdx, pm.p.lo, pm.p.hi, e.ID)
				}
				pm.p.untrack(e.ID - pm.p.lo)
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
			}
			// Per-partition conservation and wake summary after every
			// operation.
			for _, q := range parts {
				if q.p.residents() != len(q.in) {
					t.Fatalf("op %d: partition [%d,%d] holds %d, model %d",
						opIdx, q.p.lo, q.p.hi, q.p.residents(), len(q.in))
				}
				got, gotOK := q.p.MinSendTime()
				want, wantOK := q.minSendTime()
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("op %d: partition [%d,%d] MinSendTime = %d,%v, model %d,%v",
						opIdx, q.p.lo, q.p.hi, got, gotOK, want, wantOK)
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
