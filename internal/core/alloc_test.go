package core_test

import (
	"math"
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// TestSteadyStateZeroAllocs is the allocation-free contract made
// executable: once the list has reached steady-state occupancy, the
// Enqueue/Dequeue op path performs zero heap allocations — the sublist
// stores and the flow index have grown to the occupancy's high-water
// mark, the index deletes without leaving tombstones to clean up, and no
// scratch slices grow.
func TestSteadyStateZeroAllocs(t *testing.T) {
	const n = 1 << 13
	entry := func(rng *rand.Rand, id uint32) core.Entry {
		return core.Entry{ID: id, Rank: uint64(rng.Intn(1 << 20)), SendTime: clock.Always}
	}

	// IDs cycling through a fixed space, as a flow scheduler's do: the
	// index sees every key it will ever hold during warm-up.
	t.Run("recycled ids", func(t *testing.T) {
		l := core.New(n)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n/2; i++ {
			if err := l.Enqueue(entry(rng, uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
		id := uint32(n / 2)
		// A duplicate ID (the random-rank dequeue order can leave any
		// resident alive when its ID comes around again) skips the
		// balancing dequeue so occupancy holds; the failed enqueue is
		// itself part of the allocation-free contract.
		pair := func() {
			id = (id + 1) % n
			if l.Enqueue(entry(rng, id)) == nil {
				l.Dequeue(0)
			}
		}
		requireZeroAllocs(t, l, 4*n, pair)
	})

	// IDs that are never reused, as a packet scheduler's are (the hold
	// model of the bench suite's list_hold): every pair deletes one key
	// from the index and inserts one it has never seen.
	fresh := func(l *core.List, resident int) func(*testing.T) {
		return func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			id := uint32(0)
			for ; id < uint32(resident); id++ {
				if err := l.Enqueue(entry(rng, id)); err != nil {
					t.Fatal(err)
				}
			}
			pair := func() {
				if _, ok := l.Dequeue(0); !ok {
					t.Fatal("list ran dry")
				}
				if err := l.Enqueue(entry(rng, id)); err != nil {
					t.Fatal(err)
				}
				id++
			}
			requireZeroAllocs(t, l, 16*resident, pair)
		}
	}
	t.Run("fresh ids", fresh(core.New(n), n/2))
	// The sharded engine's configuration: full shared capacity, geometry
	// for an eighth of it, occupancy right at that share (what used to be
	// the constructor's occupancy hint).
	t.Run("fresh ids at the occupancy hint",
		fresh(core.NewWithSublistSize(n, int(math.Ceil(math.Sqrt(n/8)))), n/8))
}

// requireZeroAllocs warms the list with warm calls of pair — enough for
// every storage high-water mark to be reached — and then requires pair to
// allocate nothing.
func requireZeroAllocs(t *testing.T, l *core.List, warm int, pair func()) {
	t.Helper()
	for i := 0; i < warm; i++ {
		pair()
	}
	if allocs := testing.AllocsPerRun(2000, pair); allocs != 0 {
		t.Fatalf("steady-state enqueue/dequeue allocated %v allocs/op, want 0", allocs)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchZeroAllocs: the batch APIs with caller-provided buffers stay
// allocation-free too.
func TestBatchZeroAllocs(t *testing.T) {
	const n = 1 << 12
	const batch = 64
	l := core.New(n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n/2; i++ {
		if err := l.Enqueue(core.Entry{ID: uint32(i), Rank: uint64(rng.Intn(1 << 20)), SendTime: clock.Always}); err != nil {
			t.Fatal(err)
		}
	}
	in := make([]core.Entry, batch)
	out := make([]core.Entry, 0, batch)
	id := uint32(n / 2)
	fill := func() {
		for j := range in {
			id = (id + 1) % n
			in[j] = core.Entry{ID: id, Rank: uint64(rng.Intn(1 << 20)), SendTime: clock.Always}
		}
	}
	for i := 0; i < 4*n/batch; i++ { // warm the ID cycle
		fill()
		l.EnqueueBatch(in)
		out = l.DequeueUpTo(0, batch, out[:0])
	}
	allocs := testing.AllocsPerRun(200, func() {
		fill()
		l.EnqueueBatch(in)
		out = l.DequeueUpTo(0, batch, out[:0])
	})
	if allocs != 0 {
		t.Fatalf("batch enqueue/dequeue allocated %v allocs/op, want 0", allocs)
	}
}

// TestBatchStatsParity drives two identical lists through the same
// logical operation stream — one with single ops, one with the batch
// APIs — and requires identical outputs AND identical hardware Stats:
// the batch path must charge exactly what the same operations issued one
// at a time would (the hardware has no batch datapath).
func TestBatchStatsParity(t *testing.T) {
	const capacity = 257
	single := core.New(capacity)
	batched := core.New(capacity)
	rng := rand.New(rand.NewSource(3))
	nextID := uint32(0)

	for step := 0; step < 4000; step++ {
		if rng.Intn(2) == 0 {
			es := make([]core.Entry, rng.Intn(7)+1)
			for i := range es {
				id := nextID
				if nextID > 0 && rng.Intn(4) == 0 {
					id = uint32(rng.Intn(int(nextID)))
				} else {
					nextID++
				}
				es[i] = core.Entry{ID: id, Rank: uint64(rng.Intn(32)), SendTime: clock.Time(rng.Intn(8))}
			}
			gotN, gotErr := batched.EnqueueBatch(es)
			wantN := 0
			var wantErr error
			for _, e := range es {
				if err := single.Enqueue(e); err != nil {
					if wantErr == nil {
						wantErr = err
					}
					continue
				}
				wantN++
			}
			if gotN != wantN || gotErr != wantErr {
				t.Fatalf("step %d: EnqueueBatch = %d,%v, singles %d,%v", step, gotN, gotErr, wantN, wantErr)
			}
		} else {
			now := clock.Time(rng.Intn(8))
			k := rng.Intn(7) + 1
			got := batched.DequeueUpTo(now, k, nil)
			want := make([]core.Entry, 0, k)
			for len(want) < k {
				e, ok := single.Dequeue(now)
				if !ok {
					break
				}
				want = append(want, e)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: DequeueUpTo(%v,%d) len %d, singles %d", step, now, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: DequeueUpTo[%d] = %v, singles %v", step, i, got[i], want[i])
				}
			}
		}
		if gs, ss := batched.Stats(), single.Stats(); gs != ss {
			t.Fatalf("step %d: batch stats %+v diverged from single-op stats %+v", step, gs, ss)
		}
	}
	if err := batched.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
