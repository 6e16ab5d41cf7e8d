package hier

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/faultinject"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/policy"
)

// diffBackends is the backend sweep for the partitioned-vs-oracle
// differential: every registered backend the partitioned mode runs on,
// which is the welded single list.
var diffBackends = []string{"core"}

// newPartitionedNamed builds a partitioned-mode hierarchy over the named
// registered backend.
func newPartitionedNamed(t *testing.T, name string, rootPolicy *Policy) *Hierarchy {
	t.Helper()
	return NewPartitionedOn(40, rootPolicy, func(n int) backend.Backend {
		b, err := backend.New(name, n)
		if err != nil {
			t.Fatalf("backend %q: %v", name, err)
		}
		return b
	})
}

// assertNodeParity compares per-node operation counters and fault
// counters between the oracle and the partitioned hierarchy. Nodes() is
// BFS order, which both Build paths produce identically.
func assertNodeParity(t *testing.T, ctx string, oracle, part *Hierarchy) {
	t.Helper()
	on, pn := oracle.Nodes(), part.Nodes()
	if len(on) != len(pn) {
		t.Fatalf("%s: oracle has %d nodes, partitioned %d", ctx, len(on), len(pn))
	}
	for i := range on {
		if on[i].Stats() != pn[i].Stats() {
			t.Fatalf("%s: node %q stats diverge: oracle %+v, partitioned %+v",
				ctx, on[i].Name, on[i].Stats(), pn[i].Stats())
		}
		if on[i].FaultStats() != pn[i].FaultStats() {
			t.Fatalf("%s: node %q faults diverge: oracle %+v, partitioned %+v",
				ctx, on[i].Name, on[i].FaultStats(), pn[i].FaultStats())
		}
	}
}

// checkPartitioned validates the partitioned hierarchy's structure: the
// band allocator's invariants (tiling, residency, heap exactness)
// against the shared backend, and the backend's own structural checker.
// A fault-free run must also have absorbed no fault: a hierarchy never
// panics on one, so the counters are where a bug shows.
func checkPartitioned(t *testing.T, ctx string, part *Hierarchy) {
	t.Helper()
	if fs := part.FaultStats(); fs != (backend.FaultStats{}) || part.LastFault() != nil {
		t.Fatalf("%s: faults %+v, last %v", ctx, fs, part.LastFault())
	}
	if err := part.Partitioner().CheckInvariants(); err != nil {
		t.Fatalf("%s: partitioner invariants: %v", ctx, err)
	}
	if err := part.Partitioner().Backend().CheckInvariants(); err != nil {
		t.Fatalf("%s: shared backend invariants: %v", ctx, err)
	}
}

// TestPartitionedDifferentialRandom drives random mixed-policy trees
// through identical seeded traffic on the per-node-list oracle and the
// partitioned hierarchy, asserting the dequeue sequence is bit-exact
// (same packet, same instant, same NextWake hint) on every registered
// exact backend.
func TestPartitionedDifferentialRandom(t *testing.T) {
	for _, name := range diffBackends {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				ctx := fmt.Sprintf("backend %s seed %d", name, seed)
				oracle, flows := buildRandomTree(rand.New(rand.NewSource(seed)))
				part, pflows := buildRandomTreeOn(rand.New(rand.NewSource(seed)), func(p *Policy) *Hierarchy {
					return newPartitionedNamed(t, name, p)
				})
				if len(flows) != len(pflows) {
					t.Fatalf("%s: topology mismatch: %d vs %d flows", ctx, len(flows), len(pflows))
				}
				if len(flows) == 0 {
					continue
				}

				// One op stream, replayed verbatim against both.
				ops := rand.New(rand.NewSource(seed + 1000))
				now := clock.Time(0)
				injected, transmitted := 0, 0
				for i := 0; i < 500; i++ {
					now += clock.Time(ops.Intn(100))
					if ops.Intn(2) == 0 {
						f := flows[ops.Intn(len(flows))]
						p := flowq.Packet{Flow: f, Size: uint32(64 + ops.Intn(1437)), Seq: uint64(i)}
						oracle.OnArrival(now, p)
						part.OnArrival(now, p)
						injected++
					} else {
						op, ook := oracle.NextPacket(now)
						pp, pok := part.NextPacket(now)
						if ook != pok || op != pp {
							t.Fatalf("%s: step %d: oracle (%+v,%v) vs partitioned (%+v,%v)",
								ctx, i, op, ook, pp, pok)
						}
						if ook {
							transmitted++
						}
					}
					ow, ook := oracle.NextWake(now)
					pw, pok := part.NextWake(now)
					if ook != pok || (ook && ow != pw) {
						t.Fatalf("%s: step %d: NextWake oracle (%v,%v) vs partitioned (%v,%v)",
							ctx, i, ow, ook, pw, pok)
					}
				}
				for ok, idle := true, 0; ok; {
					op, ook := oracle.NextPacket(now)
					pp, pok := part.NextPacket(now)
					if ook != pok || op != pp {
						t.Fatalf("%s: drain: oracle (%+v,%v) vs partitioned (%+v,%v)", ctx, op, ook, pp, pok)
					}
					if ook {
						transmitted++
						continue
					}
					ow, ook := oracle.NextWake(now)
					pw, pok := part.NextWake(now)
					if ook != pok || ow != pw {
						t.Fatalf("%s: drain: NextWake oracle (%v,%v) vs partitioned (%v,%v)", ctx, ow, ook, pw, pok)
					}
					now, ok = shapedWait(oracle, now, &idle)
				}
				if transmitted != injected || part.Backlog() != 0 {
					t.Fatalf("%s: transmitted %d, injected %d, backlog %d",
						ctx, transmitted, injected, part.Backlog())
				}
				assertNodeParity(t, ctx, oracle, part)
				checkPartitioned(t, ctx, part)
			}
		})
	}
}

// diffTwoLevel builds the §6.3 enforcement topology (Token Bucket over
// WF²Q+) with the given fan-outs on an arbitrary hierarchy constructor,
// and configures per-VM rate limits.
func diffTwoLevel(h *Hierarchy, nVMs, nFlows int, sampledGbps float64) {
	id := flowq.FlowID(0)
	var vms []*Node
	for v := 0; v < nVMs; v++ {
		vm := h.Root().AddNode(fmt.Sprintf("vm%d", v), policy.WF2Q())
		for f := 0; f < nFlows; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()
	otherRate := (40 - sampledGbps) * 0.9 / float64(nVMs-1)
	for v, vm := range vms {
		self := vm.Self()
		self.RateGbps = otherRate
		if v == 0 {
			self.RateGbps = sampledGbps
		}
		self.Burst = 8 * 1500
		self.Tokens = self.Burst
	}
}

// runDiffEnforcement drives the two-level topology through netsim with
// closed-loop reinjection and returns per-flow transmitted bytes.
func runDiffEnforcement(h *Hierarchy, nFlows int, dur clock.Time) (perFlow []uint64, sent uint64) {
	sim := netsim.New(netsim.Link{RateGbps: 40}, h)
	perFlow = make([]uint64, nFlows)
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		perFlow[int(p.Flow)] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := 0; f < nFlows; f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: flowq.FlowID(f), Size: 1500, Seq: seq})
		}
	}
	sim.Run(dur)
	return perFlow, sim.Sent()
}

// TestPartitionedDifferentialEnforcement runs the Fig 11/12 Token
// Bucket + WF²Q+ topology through netsim in both modes: the event-driven
// simulation (arming wakes from NextWake) must transmit the identical
// per-flow byte sequence, which also proves the per-partition heaps
// report the oracle's exact wake instants.
func TestPartitionedDifferentialEnforcement(t *testing.T) {
	const nVMs, nFlows = 10, 10
	const dur = clock.Time(2_000_000) // 2 ms is plenty for bit-exactness
	for _, name := range diffBackends {
		t.Run(name, func(t *testing.T) {
			oracle := New(40, policy.TokenBucket())
			diffTwoLevel(oracle, nVMs, nFlows, 8)
			part := newPartitionedNamed(t, name, policy.TokenBucket())
			diffTwoLevel(part, nVMs, nFlows, 8)

			ob, osent := runDiffEnforcement(oracle, nVMs*nFlows, dur)
			pb, psent := runDiffEnforcement(part, nVMs*nFlows, dur)
			if osent != psent {
				t.Fatalf("backend %s: oracle sent %d packets, partitioned %d", name, osent, psent)
			}
			for f := range ob {
				if ob[f] != pb[f] {
					t.Fatalf("backend %s: flow %d bytes diverge: oracle %d, partitioned %d",
						name, f, ob[f], pb[f])
				}
			}
			assertNodeParity(t, "enforcement "+name, oracle, part)
			checkPartitioned(t, "enforcement "+name, part)
		})
	}
}

// TestPartitionedWakeParityShaped compares NextWake instant-by-instant
// on a shaped (wall-clock) hierarchy while packets drain: the
// per-partition send_time heaps must reproduce the per-level lists' exact
// minima, including after partial drains.
func TestPartitionedWakeParityShaped(t *testing.T) {
	build := func(mk func(*Policy) *Hierarchy) *Hierarchy {
		h := mk(policy.TokenBucket())
		diffTwoLevel(h, 4, 3, 2)
		return h
	}
	oracle := build(func(p *Policy) *Hierarchy { return New(40, p) })
	part := build(func(p *Policy) *Hierarchy { return newPartitionedNamed(t, "core", p) })

	for f := flowq.FlowID(0); f < 12; f++ {
		p := flowq.Packet{Flow: f, Size: 1500, Seq: uint64(f)}
		oracle.OnArrival(0, p)
		part.OnArrival(0, p)
	}
	now := clock.Time(0)
	for i := 0; i < 200; i++ {
		op, ook := oracle.NextPacket(now)
		pp, pok := part.NextPacket(now)
		if ook != pok || op != pp {
			t.Fatalf("step %d: schedule diverges: oracle (%+v,%v) vs (%+v,%v)", i, op, ook, pp, pok)
		}
		ow, owok := oracle.NextWake(now)
		pw, pwok := part.NextWake(now)
		if owok != pwok || (owok && ow != pw) {
			t.Fatalf("step %d now %d: NextWake oracle (%v,%v) vs partitioned (%v,%v)",
				i, now, ow, owok, pw, pwok)
		}
		if !ook {
			if !owok {
				break
			}
			now = ow
			continue
		}
		now += 100
	}
}

// TestPartitionedFaultAttribution forces enqueue failures with
// the fault-injection wrapper around the shared backend and asserts the
// hierarchy's per-node FaultStats attribute every drop to the node whose
// logical PIEO rejected the insert — summing exactly to the
// hierarchy-wide counters the chaos suite already audits.
func TestPartitionedFaultAttribution(t *testing.T) {
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 42, ErrorEvery: 7})
	h := NewPartitionedOn(40, policy.RoundRobin(), func(n int) backend.Backend {
		return faultinject.Wrap(backend.NewCoreList(n), inj)
	})
	diffTwoLevelRR(h, 5, 4)

	rng := rand.New(rand.NewSource(9))
	now := clock.Time(0)
	for i := 0; i < 2000; i++ {
		now += clock.Time(rng.Intn(50))
		if rng.Intn(2) == 0 {
			f := flowq.FlowID(rng.Intn(20))
			h.OnArrival(now, flowq.Packet{Flow: f, Size: 1500, Seq: uint64(i)})
		} else {
			h.NextPacket(now)
		}
	}
	inj.Disarm()

	var sum backend.FaultStats
	for _, n := range h.Nodes() {
		sum.Add(n.FaultStats())
	}
	if sum != h.FaultStats() {
		t.Fatalf("per-node faults %+v do not sum to hierarchy faults %+v", sum, h.FaultStats())
	}
	if sum.EnqueueFailures == 0 {
		t.Fatalf("injector fired %d errors but no enqueue failure was attributed", inj.Stats().Injected)
	}
	// The same attribution must hold in per-level mode.
	inj2 := faultinject.NewInjector(faultinject.Plan{Seed: 42, ErrorEvery: 7})
	h2 := NewOn(40, policy.RoundRobin(), func(n int) backend.Backend {
		return faultinject.Wrap(backend.NewCoreList(n), inj2)
	})
	diffTwoLevelRR(h2, 5, 4)
	rng2 := rand.New(rand.NewSource(9))
	now = 0
	for i := 0; i < 2000; i++ {
		now += clock.Time(rng2.Intn(50))
		if rng2.Intn(2) == 0 {
			f := flowq.FlowID(rng2.Intn(20))
			h2.OnArrival(now, flowq.Packet{Flow: f, Size: 1500, Seq: uint64(i)})
		} else {
			h2.NextPacket(now)
		}
	}
	inj2.Disarm()
	var sum2 backend.FaultStats
	for _, n := range h2.Nodes() {
		sum2.Add(n.FaultStats())
	}
	if sum2 != h2.FaultStats() {
		t.Fatalf("per-level: per-node faults %+v do not sum to hierarchy faults %+v", sum2, h2.FaultStats())
	}
}

// diffTwoLevelRR builds a plain round-robin two-level tree (no shaping
// state needed), for the fault-attribution tests.
func diffTwoLevelRR(h *Hierarchy, nVMs, nFlows int) {
	id := flowq.FlowID(0)
	for v := 0; v < nVMs; v++ {
		vm := h.Root().AddNode(fmt.Sprintf("vm%d", v), policy.RoundRobin())
		for f := 0; f < nFlows; f++ {
			vm.AddFlow(id)
			id++
		}
	}
	h.Build()
}
