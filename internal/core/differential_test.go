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
	"pieo/internal/refmodel/conform"
)

// coreAt builds core lists with sublists of s, or of the paper's ⌈√N⌉
// when s is 0, as conform.Core backends: the list's own selects outside
// the contract ride on every program.
func coreAt(s int) func(int) backend.Backend {
	return func(n int) backend.Backend {
		if s == 0 {
			return conform.Core(core.New(n))
		}
		return conform.Core(core.NewWithSublistSize(n, s))
	}
}

// runDifferential replays conformance programs of about steps operations
// each, seeded from [lo, hi), on the paper-geometry list. One arrival in
// seventeen carries an always-false predicate.
func runDifferential(t *testing.T, lo, hi int64, steps int, sh conform.Shape) {
	t.Helper()
	sh.NeverOdds = 17
	for seed := lo; seed < hi; seed++ {
		conform.Run(t, coreAt(0), sh.Seeded(seed, 7*steps))
	}
}

func TestDifferentialSmallList(t *testing.T) {
	// Tiny capacity stresses the full/empty sublist edge cases.
	runDifferential(t, 0, 20, 3000, conform.Shape{Capacity: 9, RankBits: 3, TimeBits: 3})
}

func TestDifferentialNarrowRanks(t *testing.T) {
	// Few distinct ranks: constant FIFO tie-breaking pressure.
	runDifferential(t, 100, 110, 4000, conform.Shape{Capacity: 64, RankBits: 1, TimeBits: 2})
}

func TestDifferentialMediumList(t *testing.T) {
	runDifferential(t, 200, 206, 6000, conform.Shape{Capacity: 256, RankBits: 16, TimeBits: 6})
}

func TestDifferentialLargeList(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential run")
	}
	runDifferential(t, 7, 8, 30000, conform.Shape{Capacity: 4096, RankBits: 16, TimeBits: 8})
}

func TestDifferentialAlwaysEligible(t *testing.T) {
	// A time space of one instant makes every finite send_time 0: pure
	// priority-queue behavior (the §4.5 PIFO-emulation mode).
	runDifferential(t, 300, 306, 4000, conform.Shape{Capacity: 128, RankBits: 12})
}

// TestDifferentialBackends replays the conformance programs over the
// paper-geometry list through conform.Core, so the list's own selects
// outside the contract ride on every program. The one-lock engine behind
// pieo.SyncList is held to the same programs in the root package.
func TestDifferentialBackends(t *testing.T) {
	configs := []struct {
		steps int
		sh    conform.Shape
	}{
		{2000, conform.Shape{Capacity: 9, RankBits: 3, TimeBits: 3, NeverOdds: 17}},  // tiny: constant full/empty pressure
		{3000, conform.Shape{Capacity: 64, RankBits: 1, TimeBits: 2, NeverOdds: 17}}, // narrow ranks: constant FIFO tie-breaks
		{4000, conform.Shape{Capacity: 256, RankBits: 16, TimeBits: 6, NeverOdds: 17}},
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("core/cap%d/seed%d", cfg.sh.Capacity, seed), func(t *testing.T) {
				conform.Run(t, coreAt(0), cfg.sh.Seeded(seed, 7*cfg.steps))
			})
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
// ranks make the FIFO tie-break carry the order, and ranged and flow
// dequeues extract from sublist interiors so refills run in both
// directions.
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
			nextID := uint32(0)
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
					e := core.Entry{ID: nextID, Rank: uint64(rng.Intn(ranks)), SendTime: clock.Time(rng.Intn(timeSpace))}
					gotErr := impl.Enqueue(e)
					if wantErr := ref.Enqueue(e); gotErr != wantErr {
						t.Fatalf("step %d: Enqueue(%v) = %v, ref %v", step, e, gotErr, wantErr)
					} else if gotErr == nil {
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
				if gotOK != wantOK || (gotOK && got != want) {
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
					if gotSnap[i] != wantSnap[i] {
						t.Fatalf("step %d after %s: order diverges at %d: %v, ref %v", step, what, i, gotSnap[i], wantSnap[i])
					}
				}
			}
		})
	}
}
