package backend_test

import (
	"slices"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/faultinject"
	"pieo/internal/refmodel"
	"pieo/internal/refmodel/conform"
)

// stormShape is the mixed workload every registered backend runs: 256
// entries, ranks below 512, 32 instants.
var stormShape = conform.Shape{Capacity: 256, RankBits: 9, TimeBits: 5}

// registered builds the backend registered under name.
func registered(t *testing.T, name string) func(int) backend.Backend {
	return func(n int) backend.Backend {
		b, err := backend.New(name, n)
		if err != nil {
			t.Fatalf("construct: %v", err)
		}
		return b
	}
}

// TestRegistryNames pins the registry: one exact list (core) and the
// reference oracle — exact backends only. A
// name added or lost is a decision, not a side effect of linking a
// package.
func TestRegistryNames(t *testing.T) {
	want := []string{"core", "ref"}
	if got := backend.Names(); !slices.Equal(got, want) {
		t.Fatalf("backend.Names() = %v, want %v", got, want)
	}
}

// TestCheckInvariantsAllBackends runs a conformance program — the
// structural validator after every operation — over every registered
// backend, the reference model included, then drains it and checks the
// empty structure.
func TestCheckInvariantsAllBackends(t *testing.T) {
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			var b backend.Backend
			newBackend := registered(t, name)
			conform.Run(t, func(n int) backend.Backend { b = newBackend(n); return b }, stormShape.Seeded(9, 40000))
			for b.Len() > 0 {
				if _, ok := b.Dequeue(clock.Never); !ok {
					t.Fatalf("drain stalled with %d resident", b.Len())
				}
			}
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("post-drain invariants: %v", err)
			}
		})
	}
}

// TestRangedStormAllBackends drives the access pattern of the
// partitioned hierarchy over every registered backend: IDs in eight
// disjoint bands, each band's ranks in its own region, and ranged
// dequeues over whole bands — against the reference model, whose final
// contents every backend must match.
func TestRangedStormAllBackends(t *testing.T) {
	sh := stormShape
	sh.Capacity, sh.Layout = 1024, conform.Banded
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			conform.Run(t, registered(t, name), sh.Seeded(21, 40000))
		})
	}
}

// TestCheckInvariantsPostFault repeats the sweep with the fault-injection
// wrapper interposed: injected errors and capacity squeezes must leave
// every backend structurally clean, because a shed arrival never touches
// the inner structure. The reference model runs behind a wrapper with the
// same plan, so the spec sheds exactly the same arrivals.
func TestCheckInvariantsPostFault(t *testing.T) {
	plan := faultinject.Plan{Seed: 77, ErrorEvery: 17, SqueezeEvery: 29, SqueezeLen: 3}
	for _, name := range backend.Names() {
		t.Run(name, func(t *testing.T) {
			inner := registered(t, name)(stormShape.Capacity)
			inj := faultinject.NewInjector(plan)
			b := faultinject.Wrap(inner, inj)
			spec := faultinject.Wrap(refmodel.New(stormShape.Capacity), faultinject.NewInjector(plan))
			if err := conform.Check(b, spec, stormShape.Seeded(13, 40000)); err != nil {
				t.Fatal(err)
			}
			inj.Disarm()
			if err := inner.CheckInvariants(); err != nil {
				t.Fatalf("post-fault invariants: %v", err)
			}
			if inj.Stats().Injected == 0 || inj.Stats().Squeezes == 0 {
				t.Fatalf("fault schedules never fired on %s: %+v", name, inj.Stats())
			}
			if got, wantLen := b.Len(), inner.Len(); got != wantLen {
				t.Fatalf("wrapper Len %d != inner Len %d", got, wantLen)
			}
			if got, want := b.DeclaredDrops(), spec.DeclaredDrops(); !slices.Equal(got, want) {
				t.Fatalf("declared drops %v, spec %v", got, want)
			}
		})
	}
}
