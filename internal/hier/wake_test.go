package hier

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/policy"
)

// coreList is the default backend factory.
func coreList(n int) backend.Backend { return backend.NewCoreList(n) }

// shape sets a child's token bucket: rate in Gbps, a one-MTU burst, and
// the given starting credit.
func shape(c *Child, rateGbps, tokens float64) {
	c.RateGbps, c.Burst, c.Tokens = rateGbps, 1500, tokens
}

// TestNextWakeFindsEveryShapedRelease is the stall regression: a shaped
// child's release must arm a wake wherever it sits. In "mixed depth" a
// token-bucket node shares its depth with a WF²Q+ node, whose virtual
// send times are no wall-clock wake; in "eligible minima" every depth's
// smallest send time is already past (VM A is shaped but its flow is
// eligible, VM B is eligible but its flow is shaped), so neither
// depth's minimum lies ahead. Each packet must leave at its release plus
// its 300 ns transmission at 40 Gbps.
func TestNextWakeFindsEveryShapedRelease(t *testing.T) {
	trees := []struct {
		name  string
		root  func() *Policy
		build func(h *Hierarchy) // topology, Build, then shaping
		flows []flowq.FlowID     // one 1500 B arrival each, at 0
		want  []clock.Time       // transmission completions, in order
	}{
		{"mixed depth", policy.RoundRobin, func(h *Hierarchy) {
			h.Root().AddNode("shaped", policy.TokenBucket()).AddFlow(0)
			h.Root().AddNode("fair", policy.WF2Q()).AddFlow(1)
			h.Build()
			shape(h.Leaf(0), 1, 0) // 1500 B at 1 Gbps: released at 12 µs
		}, []flowq.FlowID{0}, []clock.Time{12_300}},
		{"eligible minima", policy.TokenBucket, func(h *Hierarchy) {
			a := h.Root().AddNode("A", policy.TokenBucket())
			a.AddFlow(0)
			b := h.Root().AddNode("B", policy.TokenBucket())
			b.AddFlow(1)
			h.Build()
			shape(a.Self(), 1.0/64, 0) // released at 768 µs
			shape(h.Leaf(0), 10, 1500)
			shape(b.Self(), 10, 1500)
			shape(h.Leaf(1), 1, 0) // released at 12 µs
		}, []flowq.FlowID{0, 1}, []clock.Time{12_300, 768_300}},
	}
	for _, tree := range trees {
		for _, arr := range bothLayouts {
			t.Run(tree.name+"/"+arr.name, func(t *testing.T) {
				h := arr.mk(tree.root(), coreList)
				tree.build(h)
				sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
				var sent []clock.Time
				sim.OnTransmit = func(now clock.Time, p flowq.Packet) { sent = append(sent, now) }
				for _, f := range tree.flows {
					sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500})
				}
				sim.Run(2_000_000)
				if fmt.Sprint(sent) != fmt.Sprint(tree.want) {
					t.Fatalf("transmissions completed at %v, want %v", sent, tree.want)
				}
			})
		}
	}
}

// TestShapedTreesDrain is the liveness property behind the wake rule:
// on random trees of token-bucket, WF²Q+ and strict-priority nodes, every
// rate positive, depth 2–3, both arrangements, the link must drain the
// whole backlog once arrivals stop. The horizon allows each level to
// pass the entire offered load at the slowest rate in the tree, which a
// live scheduler always beats.
func TestShapedTreesDrain(t *testing.T) {
	pols := []func() *Policy{policy.TokenBucket, policy.WF2Q, policy.StrictPriority}
	for seed := int64(1); seed <= 30; seed++ {
		for _, arr := range bothLayouts {
			rng := rand.New(rand.NewSource(seed))
			h := arr.mk(pols[rng.Intn(len(pols))](), coreList)
			minRate := 40.0
			var leaves []flowq.FlowID
			var grow func(n *Node, depth int)
			grow = func(n *Node, depth int) {
				for i, kids := 0, 1+rng.Intn(3); i < kids; i++ {
					if depth < 3 && (depth < 2 || rng.Intn(2) == 0) {
						grow(n.AddNode("n", pols[rng.Intn(len(pols))]()), depth+1)
						continue
					}
					id := flowq.FlowID(len(leaves))
					n.AddFlow(id)
					leaves = append(leaves, id)
				}
			}
			grow(h.Root(), 1)
			h.Build()
			shaped := make([]*Child, 0, len(leaves))
			for _, n := range h.Nodes()[1:] {
				shaped = append(shaped, n.Self())
			}
			for _, id := range leaves {
				shaped = append(shaped, h.Leaf(id))
			}
			for _, c := range shaped {
				rate := 1 + 9*rng.Float64()
				minRate = min(minRate, rate)
				shape(c, rate, 1500*float64(rng.Intn(2)))
				c.Priority = uint64(rng.Intn(3))
			}

			sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
			var bytes float64
			last := clock.Time(0)
			for i := 0; i < 40; i++ {
				at := clock.Time(rng.Intn(20_000))
				size := uint32(100 + rng.Intn(1401))
				sim.InjectOne(at, flowq.Packet{Flow: leaves[rng.Intn(len(leaves))], Size: size, Seq: uint64(i)})
				bytes += float64(size)
				last = max(last, at)
			}
			horizon := last + clock.Time(float64(h.Levels()+1)*bytes*8/minRate)
			sim.Run(horizon)
			if h.Backlog() != 0 {
				t.Fatalf("seed %d, %s: %d packets still queued at %v (offered %.0f B, slowest rate %.2f Gbps)",
					seed, arr.name, h.Backlog(), horizon, bytes, minRate)
			}
		}
	}
}
