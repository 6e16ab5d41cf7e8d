package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel"
	"pieo/internal/refmodel/conform"
)

// TestEqualRankRunSpansSublists holds FIFO among equal ranks where the
// list keeps it with no arrival stamp: runs of one rank at least three
// sublists long, so Invariant-1 moves — a full sublist spilling its tail
// into the next, a refill from either neighbour — carry run members
// across sublist boundaries, and an arrival's place after its equals
// depends on the pointer-array select picking the run's last sublist.
// Other ranks sit below and between the runs; the top rank is a run, so
// EvictMax always takes a run's newest member. Through the runs it
// interleaves Dequeue (some members are not yet eligible, some never),
// DequeueRange over an ID band around a member, DequeueFlow and UpdateRank
// back to the same rank from mid-run, and EvictMax, topping the runs back
// up with fresh arrivals. After every operation the answer, Snapshot and
// CheckInvariants are held to refmodel.
func TestEqualRankRunSpansSublists(t *testing.T) {
	const (
		n      = 144 // ⌈√N⌉ = 12
		runLen = 37  // three full sublists of ⌈√N⌉ and one more
		others = 3   // residents of each rank between the runs
		steps  = 1500
	)
	runRanks := []uint64{100, 200, 300}
	otherRanks := []uint64{50, 150, 250}
	for _, s := range []int{2, 3, 12} {
		t.Run(fmt.Sprintf("S=%d", s), func(t *testing.T) {
			l := core.NewWithSublistSize(n, s)
			impl, spec := conform.Core(l), backend.Backend(refmodel.New(n))
			rng := rand.New(rand.NewSource(int64(s)))
			nextID := uint32(0)
			step, op := 0, "build"

			check := func(got, want any) {
				t.Helper()
				if got != want {
					t.Fatalf("step %d %s: list %v, refmodel %v", step, op, got, want)
				}
				if err := impl.CheckInvariants(); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				if got, want := impl.Snapshot(), spec.Snapshot(); !slices.Equal(got, want) {
					t.Fatalf("step %d %s: snapshot\n list     %v\n refmodel %v", step, op, got, want)
				}
			}
			// extract runs one extraction on the list and on refmodel.
			extract := func(name string, f func(backend.Backend) (core.Entry, bool)) {
				t.Helper()
				op = name
				got, gotOK := f(impl)
				want, wantOK := f(spec)
				check(answer{got, gotOK}, answer{want, wantOK})
			}
			sendTime := func() clock.Time {
				switch r := rng.Intn(10); {
				case r < 7:
					return clock.Always
				case r < 9:
					return clock.Time(1 + rng.Intn(8))
				default:
					return clock.Never
				}
			}
			arrive := func(rank uint64) {
				t.Helper()
				e := core.Entry{ID: nextID, Rank: rank, SendTime: sendTime()}
				nextID++
				op = fmt.Sprintf("Enqueue(%v)", e)
				check(impl.Enqueue(e), spec.Enqueue(e))
			}
			// members returns the residents of rank r in FIFO order.
			members := func(r uint64) []core.Entry {
				var out []core.Entry
				for _, e := range spec.Snapshot() {
					if e.Rank == r {
						out = append(out, e)
					}
				}
				return out
			}
			// midRun picks a member of a random run away from both ends.
			midRun := func() (core.Entry, uint64) {
				r := runRanks[rng.Intn(len(runRanks))]
				m := members(r)
				return m[1+rng.Intn(len(m)-2)], r
			}
			topUp := func() {
				t.Helper()
				for _, r := range runRanks {
					for len(members(r)) < runLen {
						arrive(r)
					}
				}
				for _, r := range otherRanks {
					for len(members(r)) < others {
						arrive(r)
					}
				}
			}
			spans := func() {
				t.Helper()
				views := l.DumpSublists()
				for _, r := range runRanks {
					k := 0
					for _, v := range views {
						if slices.ContainsFunc(v.Entries, func(e core.Entry) bool { return e.Rank == r }) {
							k++
						}
					}
					if k < 3 {
						t.Fatalf("step %d: the run of rank %d spans %d sublists, want >= 3", step, r, k)
					}
				}
			}

			// Build the runs interleaved, so each one grows inside the
			// list and every arrival spills into the runs after it.
			for i := 0; i < runLen; i++ {
				for j, r := range runRanks {
					arrive(r)
					if i%12 == 0 {
						arrive(otherRanks[j])
					}
				}
			}
			topUp()
			spans()

			for step = 1; step <= steps; step++ {
				switch rng.Intn(5) {
				case 0:
					now := clock.Time(rng.Intn(10))
					extract(fmt.Sprintf("Dequeue(%v)", now),
						func(b backend.Backend) (core.Entry, bool) { return b.Dequeue(now) })
				case 1:
					e, _ := midRun()
					w := uint32(rng.Intn(40))
					lo, hi := e.ID-min(e.ID, w), e.ID+w
					now := clock.Time(rng.Intn(10))
					extract(fmt.Sprintf("DequeueRange(%v, %d, %d)", now, lo, hi),
						func(b backend.Backend) (core.Entry, bool) { return b.DequeueRange(now, lo, hi) })
				case 2:
					e, _ := midRun()
					extract(fmt.Sprintf("DequeueFlow(%d)", e.ID),
						func(b backend.Backend) (core.Entry, bool) { return b.DequeueFlow(e.ID) })
				case 3:
					e, r := midRun()
					st := sendTime()
					op = fmt.Sprintf("UpdateRank(%d, %d, %v)", e.ID, r, st)
					check(impl.UpdateRank(e.ID, r, st), spec.UpdateRank(e.ID, r, st))
				case 4:
					extract("EvictMax", backend.Backend.EvictMax)
				}
				topUp()
				spans()
			}
		})
	}
}

// answer is one extraction's result, comparable with ==.
type answer struct {
	e  core.Entry
	ok bool
}
