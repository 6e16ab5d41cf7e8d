package hier

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/policy"
)

// buildRandomTreeOn grows a random 2-4 level hierarchy with mixed
// policies into a hierarchy produced by mk. The rng fully determines the
// topology, so two calls with identically-seeded generators build the
// same tree — the differential suite's oracle pairing relies on this.
func buildRandomTreeOn(rng *rand.Rand, mk func(rootPolicy *Policy) *Hierarchy) (*Hierarchy, []flowq.FlowID) {
	policies := []func() *Policy{policy.RoundRobin, policy.StrictPriority, policy.WFQ, policy.WF2Q, policy.TokenBucket}
	pick := func() *Policy { return policies[rng.Intn(len(policies))]() }

	h := mk(pick())
	var flows []flowq.FlowID
	nextFlow := flowq.FlowID(0)

	var grow func(n *Node, depth int)
	grow = func(n *Node, depth int) {
		kids := 1 + rng.Intn(3)
		for i := 0; i < kids; i++ {
			if depth >= 3 || rng.Intn(2) == 0 {
				n.AddFlow(nextFlow)
				flows = append(flows, nextFlow)
				nextFlow++
			} else {
				grow(n.AddNode(fmt.Sprintf("n%d", nextFlow), pick()), depth+1)
			}
		}
	}
	grow(h.Root(), 1)
	h.Build()
	// Give every child sane control-plane state for every policy.
	var fix func(n *Node)
	fix = func(n *Node) {
		for _, c := range n.children {
			c.Weight = uint64(1 + rng.Intn(4))
			c.Priority = uint64(rng.Intn(4))
			c.Quantum = 1500 * uint64(1+rng.Intn(2))
			c.RateGbps = float64(1 + rng.Intn(40))
			c.Burst = 1500 * float64(1+rng.Intn(4))
			c.Tokens = c.Burst
			if c.Node != nil {
				fix(c.Node)
			}
		}
	}
	fix(h.Root())
	return h, flows
}

// shapedWait moves now past a moment when h holds packets but sends
// none — token-bucket children waiting for tokens: to the next wake, or
// 1 µs on when the waiting child's depth keeps no wall-clock wake index
// (it shares the depth with a virtual-time policy). ok is false when no
// wait can help: h is empty, or has idled too long.
func shapedWait(h *Hierarchy, now clock.Time, idle *int) (clock.Time, bool) {
	*idle++
	if h.Backlog() == 0 || *idle > 1000 {
		return now, false
	}
	if at, ok := h.NextWake(now); ok {
		return at, true
	}
	return now + 1000, true
}

// buildRandomTree grows a random 2-4 level hierarchy with mixed policies
// over the default per-level layout.
func buildRandomTree(rng *rand.Rand) (*Hierarchy, []flowq.FlowID) {
	return buildRandomTreeOn(rng, func(p *Policy) *Hierarchy { return New(40, p) })
}

// TestRandomTopologyConservation drives random trees with random
// arrivals and checks packet conservation, per-level list invariants,
// and that every transmitted packet belonged to a real backlogged flow.
// Shaped children are waited for, so everything must drain.
func TestRandomTopologyConservation(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, flows := buildRandomTree(rng)
		if len(flows) == 0 {
			continue
		}
		injected := 0
		for i := 0; i < 200; i++ {
			f := flows[rng.Intn(len(flows))]
			h.OnArrival(clock.Time(i), flowq.Packet{Flow: f, Size: uint32(64 + rng.Intn(1437)), Seq: uint64(i)})
			injected++
		}
		transmitted, idle := 0, 0
		for now, ok := clock.Time(1000), true; ok; {
			if _, sent := h.NextPacket(now); !sent {
				now, ok = shapedWait(h, now, &idle)
				continue
			}
			transmitted++
			now++
			for d := 0; d < h.Levels(); d++ {
				if err := h.Level(d).CheckInvariants(); err != nil {
					t.Fatalf("seed %d: level %d after %d: %v", seed, d, transmitted, err)
				}
			}
		}
		if transmitted+h.Backlog() != injected {
			t.Fatalf("seed %d: %d transmitted + %d backlog != %d injected",
				seed, transmitted, h.Backlog(), injected)
		}
		if h.Backlog() != 0 {
			t.Fatalf("seed %d: %d packets stuck", seed, h.Backlog())
		}
	}
}

// TestRandomTopologyInterleavedArrivals interleaves arrivals and
// dequeues (the live pattern) instead of a fill-then-drain phase split.
func TestRandomTopologyInterleavedArrivals(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, flows := buildRandomTree(rng)
		if len(flows) == 0 {
			continue
		}
		injected, transmitted := 0, 0
		now := clock.Time(0)
		for i := 0; i < 600; i++ {
			now += clock.Time(rng.Intn(100))
			if rng.Intn(2) == 0 {
				f := flows[rng.Intn(len(flows))]
				h.OnArrival(now, flowq.Packet{Flow: f, Size: 1500, Seq: uint64(i)})
				injected++
			} else if _, ok := h.NextPacket(now); ok {
				transmitted++
			}
		}
		for ok, idle := true, 0; ok; {
			if _, sent := h.NextPacket(now); sent {
				transmitted++
			} else {
				now, ok = shapedWait(h, now, &idle)
			}
		}
		if transmitted != injected || h.Backlog() != 0 {
			t.Fatalf("seed %d: transmitted %d, injected %d, backlog %d",
				seed, transmitted, injected, h.Backlog())
		}
		for d := 0; d < h.Levels(); d++ {
			if err := h.Level(d).CheckInvariants(); err != nil {
				t.Fatalf("seed %d: level %d: %v", seed, d, err)
			}
		}
	}
}
