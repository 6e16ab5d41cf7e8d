package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel"
	"pieo/internal/shard"
)

// opKind enumerates the randomized operations of the differential fuzzer.
type opKind int

const (
	opEnqueue opKind = iota
	opDequeue
	opDequeueFlow
	opDequeueRange
	opMinSendTime
	opPeek
	opEnqueueBatch
	opDequeueUpTo
	numOpKinds
)

// exactBackends enumerates the backends that promise bit-for-bit §3.1
// semantics under single-threaded use, so one harness can differentially
// test all of them against the flat reference model: the paper-exact
// sublist list, the sharded engine at K=1 (single shard, pure
// pass-through) and K=8 (hash partitioning + tournament dequeue, which
// must still be quiescent-exact).
func exactBackends(capacity int) map[string]backend.Backend {
	return map[string]backend.Backend{
		"core":    backend.NewCoreList(capacity),
		"shard-1": shard.New(capacity, 1),
		"shard-8": shard.New(capacity, 8),
	}
}

// runDifferential drives the sublist implementation and the flat
// reference model with an identical random operation stream and fails on
// the first divergence or invariant violation.
func runDifferential(t *testing.T, seed int64, capacity, steps int, rankSpace uint64, timeSpace int) {
	t.Helper()
	runDifferentialOn(t, backend.NewCoreList(capacity), seed, capacity, steps, rankSpace, timeSpace)
}

// runDifferentialOn is runDifferential over any exact Backend. A
// sixteenth of the enqueues carry an always-false predicate.
func runDifferentialOn(t *testing.T, impl backend.Backend, seed int64, capacity, steps int, rankSpace uint64, timeSpace int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	wakeRng := rand.New(rand.NewSource(^seed)) // its own stream: the op sequence is the same with or without an index
	ref := refmodel.New(capacity)
	ix, indexed := impl.(backend.EligIndexed)
	nextID := uint32(0)

	for step := 0; step < steps; step++ {
		switch opKind(rng.Intn(int(numOpKinds))) {
		case opEnqueue:
			e := core.Entry{
				ID:       nextID,
				Rank:     uint64(rng.Int63n(int64(rankSpace))),
				SendTime: clock.Time(rng.Intn(timeSpace)),
			}
			if rng.Intn(16) == 0 {
				e.SendTime = clock.Never
			}
			nextID++
			gotErr := impl.Enqueue(e)
			wantErr := ref.Enqueue(e)
			if gotErr != wantErr {
				t.Fatalf("seed %d step %d: Enqueue(%v) err = %v, ref %v", seed, step, e, gotErr, wantErr)
			}
		case opDequeue:
			now := clock.Time(rng.Intn(timeSpace))
			got, gotOK := impl.Dequeue(now)
			want, wantOK := ref.Dequeue(now)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d step %d: Dequeue(%v) = %v,%v, ref %v,%v", seed, step, now, got, gotOK, want, wantOK)
			}
		case opDequeueFlow:
			var id uint32
			if nextID > 0 {
				id = uint32(rng.Intn(int(nextID)))
			}
			got, gotOK := impl.DequeueFlow(id)
			want, wantOK := ref.DequeueFlow(id)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d step %d: DequeueFlow(%d) = %v,%v, ref %v,%v", seed, step, id, got, gotOK, want, wantOK)
			}
		case opDequeueRange:
			now := clock.Time(rng.Intn(timeSpace))
			lo := uint32(rng.Intn(int(nextID) + 1))
			hi := lo + uint32(rng.Intn(int(nextID)+1))
			got, gotOK := impl.DequeueRange(now, lo, hi)
			want, wantOK := ref.DequeueRange(now, lo, hi)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d step %d: DequeueRange(%v,%d,%d) = %v,%v, ref %v,%v",
					seed, step, now, lo, hi, got, gotOK, want, wantOK)
			}
		case opMinSendTime:
			got, gotOK := impl.MinSendTime()
			want, wantOK := ref.MinSendTime()
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("seed %d step %d: MinSendTime = %v,%v, ref %v,%v", seed, step, got, gotOK, want, wantOK)
			}
			if indexed {
				now := clock.Time(wakeRng.Intn(timeSpace))
				wake := clock.Never
				for _, e := range ref.Snapshot() {
					if e.SendTime > now && e.SendTime < wake {
						wake = e.SendTime
					}
				}
				if got := ix.NextWakeAfter(now); got != wake {
					t.Fatalf("seed %d step %d: NextWakeAfter(%v) = %v, ref %v", seed, step, now, got, wake)
				}
			}
		case opPeek:
			now := clock.Time(rng.Intn(timeSpace))
			p, canPeek := impl.(backend.Peeker)
			if !canPeek {
				break
			}
			got, gotOK := p.Peek(now)
			want, wantOK := ref.Peek(now)
			if gotOK != wantOK || got != want {
				t.Fatalf("seed %d step %d: Peek(%v) = %v,%v, ref %v,%v", seed, step, now, got, gotOK, want, wantOK)
			}
		case opEnqueueBatch:
			// Batch insert through the backend's native batch path (or the
			// fallback loop), against per-entry inserts on the reference.
			// A quarter of the entries reuse a live-or-dead ID so batches
			// regularly carry mid-batch duplicates.
			es := make([]core.Entry, rng.Intn(6)+1)
			for i := range es {
				id := nextID
				if nextID > 0 && rng.Intn(4) == 0 {
					id = uint32(rng.Intn(int(nextID)))
				} else {
					nextID++
				}
				es[i] = core.Entry{
					ID:       id,
					Rank:     uint64(rng.Int63n(int64(rankSpace))),
					SendTime: clock.Time(rng.Intn(timeSpace)),
				}
				if rng.Intn(16) == 0 {
					es[i].SendTime = clock.Never
				}
			}
			gotN, gotErr := backend.EnqueueBatch(impl, es)
			wantN := 0
			var wantErr error
			for _, e := range es {
				if err := ref.Enqueue(e); err != nil {
					if wantErr == nil {
						wantErr = err
					}
					continue
				}
				wantN++
			}
			if gotN != wantN || gotErr != wantErr {
				t.Fatalf("seed %d step %d: EnqueueBatch(%v) = %d,%v, ref %d,%v",
					seed, step, es, gotN, gotErr, wantN, wantErr)
			}
		case opDequeueUpTo:
			now := clock.Time(rng.Intn(timeSpace))
			k := rng.Intn(6) + 1
			got := backend.DequeueUpTo(impl, now, k, nil)
			want := make([]core.Entry, 0, k)
			for len(want) < k {
				e, ok := ref.Dequeue(now)
				if !ok {
					break
				}
				want = append(want, e)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: DequeueUpTo(%v,%d) returned %d entries, ref %d",
					seed, step, now, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: DequeueUpTo(%v,%d)[%d] = %v, ref %v",
						seed, step, now, k, i, got[i], want[i])
				}
			}
		}
		if impl.Len() != ref.Len() {
			t.Fatalf("seed %d step %d: Len = %d, ref %d", seed, step, impl.Len(), ref.Len())
		}
		if err := backend.CheckInvariants(impl); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
	}
	// Final state must match entry for entry.
	gotSnap, wantSnap := impl.Snapshot(), ref.Snapshot()
	if len(gotSnap) != len(wantSnap) {
		t.Fatalf("seed %d: snapshot len %d, ref %d", seed, len(gotSnap), len(wantSnap))
	}
	for i := range gotSnap {
		if gotSnap[i] != wantSnap[i] {
			t.Fatalf("seed %d: snapshot[%d] = %v, ref %v", seed, i, gotSnap[i], wantSnap[i])
		}
	}
}

func TestDifferentialSmallList(t *testing.T) {
	// Tiny capacity stresses the full/empty sublist edge cases.
	for seed := int64(0); seed < 20; seed++ {
		runDifferential(t, seed, 9, 3000, 8, 8)
	}
}

func TestDifferentialNarrowRanks(t *testing.T) {
	// Few distinct ranks: constant FIFO tie-breaking pressure.
	for seed := int64(100); seed < 110; seed++ {
		runDifferential(t, seed, 64, 4000, 2, 4)
	}
}

func TestDifferentialMediumList(t *testing.T) {
	for seed := int64(200); seed < 206; seed++ {
		runDifferential(t, seed, 256, 6000, 1<<16, 64)
	}
}

func TestDifferentialLargeList(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential run")
	}
	runDifferential(t, 7, 4096, 30000, 1<<16, 256)
}

func TestDifferentialAlwaysEligible(t *testing.T) {
	// timeSpace 1 forces every send_time to 0: pure priority-queue
	// behavior (the §4.5 PIFO-emulation mode).
	for seed := int64(300); seed < 306; seed++ {
		runDifferential(t, seed, 128, 4000, 1<<12, 1)
	}
}

// TestDifferentialBackends replays the randomized operation stream over
// every exact backend — the paper list plus the sharded engine at K=1
// and K=8. The sharded runs are the quiescent-exactness contract of
// internal/shard made executable: under single-threaded use the
// tournament dequeue, cross-shard FIFO sequencing, and capacity
// accounting must be indistinguishable from one flat list.
func TestDifferentialBackends(t *testing.T) {
	configs := []struct {
		capacity, steps int
		rankSpace       uint64
		timeSpace       int
	}{
		{9, 2000, 8, 8},  // tiny: constant full/empty pressure
		{64, 3000, 2, 4}, // narrow ranks: FIFO tie-breaks cross shards
		{256, 4000, 1 << 16, 64},
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			for name, impl := range exactBackends(cfg.capacity) {
				impl, seed, cfg := impl, seed, cfg
				t.Run(fmt.Sprintf("%s/cap%d/seed%d", name, cfg.capacity, seed), func(t *testing.T) {
					runDifferentialOn(t, impl, seed, cfg.capacity, cfg.steps, cfg.rankSpace, cfg.timeSpace)
				})
			}
		}
	}
}

// Property: for any batch of entries, draining the list at a permissive
// time yields them in nondecreasing rank order with FIFO ties.
func TestDrainOrderProperty(t *testing.T) {
	f := func(ranks []uint16) bool {
		if len(ranks) == 0 {
			return true
		}
		if len(ranks) > 512 {
			ranks = ranks[:512]
		}
		l := core.New(len(ranks))
		for i, r := range ranks {
			if err := l.Enqueue(core.Entry{ID: uint32(i), Rank: uint64(r), SendTime: clock.Always}); err != nil {
				return false
			}
		}
		prevRank := uint64(0)
		prevIDByRank := make(map[uint64]uint32)
		for range ranks {
			e, ok := l.Dequeue(0)
			if !ok || e.Rank < prevRank {
				return false
			}
			if last, seen := prevIDByRank[e.Rank]; seen && e.ID < last {
				return false // FIFO violated among equal ranks
			}
			prevIDByRank[e.Rank] = e.ID
			prevRank = e.Rank
		}
		_, ok := l.Dequeue(0)
		return !ok && l.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: an element is never dequeued before its send_time, and
// always dequeued once time passes it.
func TestEligibilityProperty(t *testing.T) {
	f := func(sends []uint8) bool {
		if len(sends) == 0 {
			return true
		}
		if len(sends) > 256 {
			sends = sends[:256]
		}
		l := core.New(len(sends))
		for i, s := range sends {
			if err := l.Enqueue(core.Entry{ID: uint32(i), Rank: uint64(i), SendTime: clock.Time(s)}); err != nil {
				return false
			}
		}
		for now := clock.Time(0); now <= 255; now++ {
			for {
				e, ok := l.Dequeue(now)
				if !ok {
					break
				}
				if e.SendTime > now {
					return false // dequeued early
				}
			}
		}
		return l.Len() == 0 // everything eligible by 255 must be gone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestInvariantMovesLandWhereSearchWould pins the three indices the
// Invariant-1 moves hand to the sublist instead of searching for them
// (spill: head of S'; refill from the left: head; from the right: tail).
// Tiny sublists make almost every operation a spill or a refill, equal
// ranks and out-of-order EnqueueSeq stamps make the tie-break carry the
// order, and ranged and flow dequeues extract from sublist interiors so
// refills run in both directions. The reference orders by (rank, arrival),
// so it is given rank<<32|seq: unique keys in the same order as the
// list's (rank, seq).
func TestInvariantMovesLandWhereSearchWould(t *testing.T) {
	const (
		ranks     = 4
		timeSpace = 4
		steps     = 4000
	)
	for _, s := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("S=%d", s), func(t *testing.T) {
			capacity := 10*s + 3
			rng := rand.New(rand.NewSource(int64(s)))
			impl := core.NewWithSublistSize(capacity, s)
			ref := refmodel.New(capacity)
			var stamps []uint64 // the next few sequence numbers, shuffled
			nextSeq, nextID := uint64(1), uint32(0)
			same := func(got, want core.Entry) bool {
				return got.ID == want.ID && got.SendTime == want.SendTime && got.Rank == want.Rank>>32
			}
			for step := 0; step < steps; step++ {
				// Fill and drain by turns so the list crosses every size.
				enqBias := 7
				if step/200%2 == 1 {
					enqBias = 3
				}
				var got, want core.Entry
				var gotOK, wantOK bool
				what := "Enqueue"
				switch op := rng.Intn(10); {
				case op < enqBias:
					if len(stamps) == 0 {
						for i := 0; i < 6; i++ {
							stamps = append(stamps, nextSeq)
							nextSeq++
						}
						rng.Shuffle(len(stamps), func(i, j int) { stamps[i], stamps[j] = stamps[j], stamps[i] })
					}
					e := core.Entry{ID: nextID, Rank: uint64(rng.Intn(ranks)), SendTime: clock.Time(rng.Intn(timeSpace))}
					gotErr := impl.EnqueueSeq(e, stamps[0])
					e.Rank = e.Rank<<32 | stamps[0]
					if wantErr := ref.Enqueue(e); gotErr != wantErr {
						t.Fatalf("step %d: EnqueueSeq(%v) = %v, ref %v", step, e, gotErr, wantErr)
					} else if gotErr == nil {
						stamps = stamps[1:]
						nextID++
					}
				case op == 7:
					what = "Dequeue"
					now := clock.Time(rng.Intn(timeSpace))
					got, gotOK = impl.Dequeue(now)
					want, wantOK = ref.Dequeue(now)
				case op == 8:
					what = "DequeueRange"
					now := clock.Time(rng.Intn(timeSpace))
					lo := uint32(rng.Intn(int(nextID) + 1))
					hi := lo + uint32(rng.Intn(2*capacity))
					got, gotOK = impl.DequeueRange(now, lo, hi)
					want, wantOK = ref.DequeueRange(now, lo, hi)
				default:
					what = "DequeueFlow"
					id := uint32(rng.Intn(int(nextID) + 1))
					if snap := impl.Snapshot(); len(snap) > 0 && rng.Intn(4) > 0 {
						id = snap[rng.Intn(len(snap))].ID // usually a resident
					}
					got, gotOK = impl.DequeueFlow(id)
					want, wantOK = ref.DequeueFlow(id)
				}
				if gotOK != wantOK || (gotOK && !same(got, want)) {
					t.Fatalf("step %d: %s = %v,%v, ref %v,%v", step, what, got, gotOK, want, wantOK)
				}
				if err := impl.CheckInvariants(); err != nil {
					t.Fatalf("step %d after %s: %v", step, what, err)
				}
				gotSnap, wantSnap := impl.Snapshot(), ref.Snapshot()
				if len(gotSnap) != len(wantSnap) {
					t.Fatalf("step %d: %d residents, ref %d", step, len(gotSnap), len(wantSnap))
				}
				for i := range gotSnap {
					if !same(gotSnap[i], wantSnap[i]) {
						t.Fatalf("step %d after %s: order diverges at %d: %v, ref %v", step, what, i, gotSnap[i], wantSnap[i])
					}
				}
			}
		})
	}
}
