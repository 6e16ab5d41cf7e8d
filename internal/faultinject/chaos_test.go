package faultinject_test

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
)

// lcg is a tiny deterministic generator so chaos workloads replay
// bit-for-bit from their seed.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

// auditConservation checks the fundamental chaos invariant: every
// accepted entry is either delivered or still queued — nothing
// disappears silently, nothing is delivered twice.
func auditConservation(t *testing.T, b backend.Backend, accepted map[uint32]bool, delivered []core.Entry) {
	t.Helper()
	seen := make(map[uint32]bool, len(delivered))
	for _, ent := range delivered {
		if seen[ent.ID] {
			t.Fatalf("id %d delivered twice", ent.ID)
		}
		seen[ent.ID] = true
		if !accepted[ent.ID] {
			t.Fatalf("id %d delivered but never accepted", ent.ID)
		}
	}
	queued := b.Snapshot()
	for _, ent := range queued {
		if seen[ent.ID] {
			t.Fatalf("id %d both delivered and still queued", ent.ID)
		}
		if !accepted[ent.ID] {
			t.Fatalf("id %d queued but never accepted", ent.ID)
		}
	}
	if got := len(delivered) + len(queued); got != len(accepted) {
		t.Fatalf("conservation violated: accepted %d, delivered %d + queued %d = %d",
			len(accepted), len(delivered), len(queued), got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("audit-time invariants: %v", err)
	}
}

// drainAll empties b, asserting global rank order on the way out.
func drainAll(t *testing.T, b backend.Backend) []core.Entry {
	t.Helper()
	var out []core.Entry
	lastRank := uint64(0)
	for {
		ent, ok := b.Dequeue(clock.Time(1 << 60))
		if !ok {
			break
		}
		if ent.Rank < lastRank {
			t.Fatalf("post-storm drain out of order: rank %d after %d", ent.Rank, lastRank)
		}
		lastRank = ent.Rank
		out = append(out, ent)
	}
	if b.Len() != 0 {
		t.Fatalf("list reports %d entries after full drain", b.Len())
	}
	return out
}

// TestWrapperDeclaredDrops verifies the backend wrapper's bookkeeping:
// every injected enqueue failure is recorded as a declared drop, and the
// inner backend conserves everything else.
func TestWrapperDeclaredDrops(t *testing.T) {
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 5, ErrorEvery: 7, SqueezeEvery: 13})
	inner := backend.NewCoreList(1024)
	b := faultinject.Wrap(inner, inj)

	rng := lcg(11)
	accepted := 0
	injectedErrs := 0
	for id := uint32(1); id <= 500; id++ {
		err := b.Enqueue(core.Entry{ID: id, Rank: rng.next() % 100, SendTime: 0})
		switch err {
		case nil:
			accepted++
		case faultinject.ErrInjected, core.ErrFull:
			injectedErrs++
		default:
			t.Fatalf("unexpected enqueue error: %v", err)
		}
	}
	drops := b.DeclaredDrops()
	if len(drops) != injectedErrs {
		t.Fatalf("declared drops %d, observed injected failures %d", len(drops), injectedErrs)
	}
	if accepted+injectedErrs != 500 {
		t.Fatalf("accepted %d + dropped %d != 500", accepted, injectedErrs)
	}
	if b.Len() != accepted {
		t.Fatalf("inner backend holds %d, accepted %d", b.Len(), accepted)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if inj.Stats().Injected == 0 || inj.Stats().Squeezes == 0 {
		t.Fatalf("expected both fault classes to fire: %+v", inj.Stats())
	}
}
