package hier

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/policy"
	"pieo/internal/stats"
)

const linkGbps = 40

// twoLevel builds the paper's §6.3 topology scaled down: nVMs interior
// nodes under a root policy, nFlows flows per VM under a per-VM policy.
func twoLevel(rootPolicy, vmPolicy *Policy, nVMs, nFlows int) (*Hierarchy, []*Node) {
	h := New(linkGbps, rootPolicy)
	var vms []*Node
	id := flowq.FlowID(0)
	for v := 0; v < nVMs; v++ {
		vm := h.Root().AddNode("vm", vmPolicy)
		for f := 0; f < nFlows; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()
	return h, vms
}

func TestBuildAssignsContiguousRanges(t *testing.T) {
	h, vms := twoLevel(policy.RoundRobin(), policy.RoundRobin(), 3, 4)
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d, want 2", h.Levels())
	}
	for i, vm := range vms {
		if vm.part.lo != uint32(i*4) || vm.part.hi != uint32(i*4+3) {
			t.Fatalf("vm %d range = [%d,%d], want [%d,%d]", i, vm.part.lo, vm.part.hi, i*4, i*4+3)
		}
	}
	if h.Root().part.lo != 0 || h.Root().part.hi != 2 {
		t.Fatalf("root range = [%d,%d], want [0,2]", h.Root().part.lo, h.Root().part.hi)
	}
}

func TestBuildValidation(t *testing.T) {
	h := New(linkGbps, policy.RoundRobin())
	h.Root().AddNode("empty", policy.RoundRobin()) // node with no children
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted a childless node")
		}
	}()
	h.Build()
}

func TestAddAfterBuildPanics(t *testing.T) {
	h, _ := twoLevel(policy.RoundRobin(), policy.RoundRobin(), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Build did not panic")
		}
	}()
	h.Root().AddNode("late", policy.RoundRobin())
}

func TestDuplicateFlowPanics(t *testing.T) {
	h := New(linkGbps, policy.RoundRobin())
	vm := h.Root().AddNode("vm", policy.RoundRobin())
	vm.AddFlow(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddFlow did not panic")
		}
	}()
	vm.AddFlow(1)
}

func TestSinglePathDelivery(t *testing.T) {
	h, _ := twoLevel(policy.RoundRobin(), policy.RoundRobin(), 2, 2)
	h.OnArrival(0, flowq.Packet{Flow: 3, Size: 100})
	p, ok := h.NextPacket(0)
	if !ok || p.Flow != 3 {
		t.Fatalf("NextPacket = flow %d ok=%v, want 3", p.Flow, ok)
	}
	if _, ok := h.NextPacket(0); ok {
		t.Fatal("NextPacket succeeded on drained hierarchy")
	}
	if h.Backlog() != 0 {
		t.Fatalf("Backlog = %d, want 0", h.Backlog())
	}
}

func TestRoundRobinAcrossVMs(t *testing.T) {
	h, _ := twoLevel(policy.RoundRobin(), policy.RoundRobin(), 2, 1)
	// Flows 0 (vm0) and 1 (vm1), both backlogged: strict alternation.
	for i := 0; i < 4; i++ {
		h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100, Seq: uint64(i)})
		h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Seq: uint64(10 + i)})
	}
	want := []flowq.FlowID{0, 1, 0, 1, 0, 1, 0, 1}
	for i, w := range want {
		p, ok := h.NextPacket(0)
		if !ok || p.Flow != w {
			t.Fatalf("NextPacket #%d = flow %d ok=%v, want %d", i, p.Flow, ok, w)
		}
	}
}

func TestStrictPriorityAtRoot(t *testing.T) {
	h := New(linkGbps, policy.StrictPriority())
	hi := h.Root().AddNode("hi", policy.RoundRobin())
	lo := h.Root().AddNode("lo", policy.RoundRobin())
	hi.AddFlow(1)
	lo.AddFlow(2)
	h.Build()
	hi.Self().Priority = 1
	lo.Self().Priority = 2

	h.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})
	h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	p, _ := h.NextPacket(0)
	if p.Flow != 1 {
		t.Fatalf("first = flow %d, want 1 (high-priority VM)", p.Flow)
	}
}

func TestThreeLevelHierarchy(t *testing.T) {
	// root -> tenants -> VMs -> flows: three physical PIEOs.
	h := New(linkGbps, policy.RoundRobin())
	id := flowq.FlowID(0)
	for tn := 0; tn < 2; tn++ {
		tenant := h.Root().AddNode("tenant", policy.RoundRobin())
		for v := 0; v < 2; v++ {
			vm := tenant.AddNode("vm", policy.RoundRobin())
			for f := 0; f < 2; f++ {
				vm.AddFlow(id)
				id++
			}
		}
	}
	h.Build()
	if h.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", h.Levels())
	}
	for fid := flowq.FlowID(0); fid < 8; fid++ {
		h.OnArrival(0, flowq.Packet{Flow: fid, Size: 100})
	}
	seen := map[flowq.FlowID]bool{}
	for i := 0; i < 8; i++ {
		p, ok := h.NextPacket(0)
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		seen[p.Flow] = true
	}
	if len(seen) != 8 {
		t.Fatalf("served %d distinct flows, want 8", len(seen))
	}
	// Round-robin at every level: tenants alternate.
	if _, ok := h.NextPacket(0); ok {
		t.Fatal("extra packet after drain")
	}
}

func TestTokenBucketRateLimitAtRoot(t *testing.T) {
	// The Fig 11 shape in miniature: one VM limited to 10 Gbps with 10
	// backlogged flows fair-queued inside.
	h, vms := twoLevel(policy.TokenBucket(), policy.WF2Q(), 1, 10)
	vm := vms[0]
	vm.Self().RateGbps = 10
	vm.Self().Burst = 1500
	vm.Self().Tokens = 1500

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	meter := stats.NewRateMeter(0)
	perFlow := map[flowq.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		meter.Record(now, p.Size)
		perFlow[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 10; f++ {
		seq++
		sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
	}
	duration := clock.Time(10_000_000)
	sim.Run(duration)
	meter.CloseAt(duration)

	if got := meter.Gbps(); math.Abs(got-10) > 0.4 {
		t.Fatalf("VM rate = %.2f Gbps, want ~10", got)
	}
	// Fair queueing inside the VM: all 10 flows share equally.
	var shares []float64
	for f := flowq.FlowID(0); f < 10; f++ {
		shares = append(shares, float64(perFlow[f]))
	}
	if j := stats.JainIndex(shares); j < 0.99 {
		t.Fatalf("intra-VM Jain index = %v (%v)", j, perFlow)
	}
}

func TestTwoVMsIndependentLimits(t *testing.T) {
	h, vms := twoLevel(policy.TokenBucket(), policy.WF2Q(), 2, 2)
	limits := []float64{4, 12}
	for i, vm := range vms {
		vm.Self().RateGbps = limits[i]
		vm.Self().Burst = 1500
		vm.Self().Tokens = 1500
	}
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	perVM := map[int]*stats.RateMeter{0: stats.NewRateMeter(0), 1: stats.NewRateMeter(0)}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		perVM[int(p.Flow)/2].Record(now, p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 4; f++ {
		seq++
		sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
	}
	duration := clock.Time(10_000_000)
	sim.Run(duration)
	for i, m := range perVM {
		m.CloseAt(duration)
		if got := m.Gbps(); math.Abs(got-limits[i]) > 0.5 {
			t.Fatalf("VM %d rate = %.2f, want ~%.0f", i, got, limits[i])
		}
	}
}

func TestWFQPolicyWeightedSharing(t *testing.T) {
	h, vms := twoLevel(policy.WFQ(), policy.RoundRobin(), 2, 1)
	vms[0].Self().Weight = 3
	vms[1].Self().Weight = 1

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	bytes := map[flowq.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	// Seed a few packets per flow so a queue never empties in the gap
	// between a transmission completing and its closed-loop replacement
	// arrival being processed.
	for f := flowq.FlowID(0); f < 2; f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
		}
	}
	sim.Run(4_000_000)
	r := float64(bytes[0]) / float64(bytes[1])
	if math.Abs(r-3) > 0.25 {
		t.Fatalf("WFQ 3:1 ratio = %v (%v)", r, bytes)
	}
}

func TestShapedBranchDoesNotBlockSiblings(t *testing.T) {
	// VM0 is rate-limited to a trickle; VM1 is unlimited... under a
	// round-robin root both VMs' eligibility lives at the root level via
	// TokenBucket, so use TB root with very different rates and verify
	// VM1 is not starved while VM0 waits for tokens.
	h, vms := twoLevel(policy.TokenBucket(), policy.RoundRobin(), 2, 1)
	vms[0].Self().RateGbps = 0.1
	vms[0].Self().Burst = 1500
	vms[1].Self().RateGbps = 30
	vms[1].Self().Burst = 1500
	vms[1].Self().Tokens = 1500

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	bytes := map[flowq.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 2; f++ {
		seq++
		sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
	}
	sim.Run(2_000_000)
	if bytes[1] == 0 {
		t.Fatal("unlimited VM starved behind the shaped VM")
	}
	if bytes[1] < 50*bytes[0] {
		t.Fatalf("share skew too small: %v", bytes)
	}
}

func TestNextWakeFromRootShaper(t *testing.T) {
	h, vms := twoLevel(policy.TokenBucket(), policy.RoundRobin(), 1, 1)
	vms[0].Self().RateGbps = 1
	vms[0].Self().Burst = 1500
	// Bucket starts empty: the head packet is deferred.
	h.OnArrival(0, flowq.Packet{Flow: 0, Size: 1500})
	if _, ok := h.NextPacket(0); ok {
		t.Fatal("packet sent with empty bucket")
	}
	at, ok := h.NextWake(0)
	if !ok {
		t.Fatal("no wake hint from wall-domain root level")
	}
	// 1500 bytes at 1 Gbps = 12000 ns to fill the bucket.
	if at != 12000 {
		t.Fatalf("wake at %v, want 12000", at)
	}
	if p, ok := h.NextPacket(12000); !ok || p.Flow != 0 {
		t.Fatalf("NextPacket(12000) = %+v ok=%v", p, ok)
	}
}

func TestHierarchyThirtyThousandFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("30K-flow hierarchy")
	}
	// The scalability claim at the hierarchy level: 300 VMs x 100 flows
	// = 30K leaves across two physical PIEOs, one service round each.
	const (
		nVMs  = 300
		perVM = 100
	)
	h, _ := twoLevel(policy.RoundRobin(), policy.WF2Q(), nVMs, perVM)
	for f := 0; f < nVMs*perVM; f++ {
		h.OnArrival(0, flowq.Packet{Flow: flowq.FlowID(f), Size: 1500, Seq: uint64(f)})
	}
	served := make(map[flowq.FlowID]bool, nVMs*perVM)
	for i := 0; i < nVMs*perVM; i++ {
		p, ok := h.NextPacket(0)
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		if served[p.Flow] {
			t.Fatalf("flow %d served twice in one round", p.Flow)
		}
		served[p.Flow] = true
	}
	for d := 0; d < h.Levels(); d++ {
		if err := h.Level(d).CheckInvariants(); err != nil {
			t.Fatalf("level %d: %v", d, err)
		}
	}
}

func TestLeafAccessors(t *testing.T) {
	h, _ := twoLevel(policy.RoundRobin(), policy.RoundRobin(), 1, 2)
	if c := h.Leaf(1); c == nil || !c.IsLeaf() || c.Flow != 1 {
		t.Fatalf("Leaf(1) = %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Leaf(99) did not panic")
		}
	}()
	h.Leaf(99)
}

// checkDepths runs every depth's Partitioner and physical-list checks:
// per depth in the per-level arrangement, the one shared pair repeatedly
// in the partitioned one.
func checkDepths(t *testing.T, ctx string, h *Hierarchy) {
	t.Helper()
	for d := 0; d < h.Levels(); d++ {
		if err := h.nodesAt[d][0].pt.CheckInvariants(); err != nil {
			t.Fatalf("%s: depth %d partitioner: %v", ctx, d, err)
		}
		if err := h.Level(d).CheckInvariants(); err != nil {
			t.Fatalf("%s: depth %d list: %v", ctx, d, err)
		}
	}
}

func TestLevelListInvariants(t *testing.T) {
	for _, layout := range bothLayouts {
		h := layout.mk(policy.RoundRobin(), func(n int) backend.Backend { return backend.NewCoreList(n) })
		for v := 0; v < 3; v++ {
			vm := h.Root().AddNode("vm", policy.WF2Q())
			for f := 0; f < 3; f++ {
				vm.AddFlow(flowq.FlowID(3*v + f))
			}
		}
		h.Build()
		for f := flowq.FlowID(0); f < 9; f++ {
			h.OnArrival(0, flowq.Packet{Flow: f, Size: 100})
			h.OnArrival(0, flowq.Packet{Flow: f, Size: 100})
		}
		checkDepths(t, layout.name+" filled", h)
		for i := 0; i < 18; i++ {
			if _, ok := h.NextPacket(clock.Time(i)); !ok {
				t.Fatalf("%s: drained early at %d", layout.name, i)
			}
			checkDepths(t, fmt.Sprintf("%s after packet %d", layout.name, i), h)
		}
	}
}

// bothLayouts names the two constructors, for tests whose claim is
// layout-independent.
var bothLayouts = []struct {
	name string
	mk   func(root *Policy, factory func(int) backend.Backend) *Hierarchy
}{
	{"per-level", func(p *Policy, f func(int) backend.Backend) *Hierarchy { return NewOn(linkGbps, p, f) }},
	{"partitioned", func(p *Policy, f func(int) backend.Backend) *Hierarchy { return NewPartitionedOn(linkGbps, p, f) }},
}

// TestNonStrictInsertFailureIsRetried is the liveness regression: one
// transient insert failure — of the activating leaf, or of its VM into
// the root — used to strand the subtree forever, because only an arrival
// on an EMPTY flow queue attempted an insert. Every later arrival must
// retry, and all six packets get out.
func TestNonStrictInsertFailureIsRetried(t *testing.T) {
	for _, layout := range bothLayouts {
		for i, what := range []string{"leaf", "vm"} {
			// The activation is two inserts, leaf first; the injector
			// fails every Nth mutation.
			inj := faultinject.NewInjector(faultinject.Plan{ErrorEvery: uint64(i + 1)})
			h := layout.mk(policy.RoundRobin(), func(n int) backend.Backend {
				return faultinject.Wrap(backend.NewCoreList(n), inj)
			})
			h.Root().AddNode("vm", policy.RoundRobin()).AddFlow(0)
			h.Build()

			h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100, Seq: 0})
			inj.Disarm()
			for seq := uint64(1); seq <= 5; seq++ {
				h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100, Seq: seq})
			}
			delivered := 0
			for i := 0; i < 10; i++ {
				if p, ok := h.NextPacket(clock.Time(i)); ok {
					if p.Seq != uint64(delivered) {
						t.Fatalf("%s, %s insert failed: packet %d delivered out of order (seq %d)", layout.name, what, delivered, p.Seq)
					}
					delivered++
				}
			}
			if delivered != 6 || h.Backlog() != 0 || h.FaultStats().EnqueueFailures != 1 {
				t.Fatalf("%s, %s insert failed: delivered %d of 6, backlog %d, enqueue failures %d (want 1)",
					layout.name, what, delivered, h.Backlog(), h.FaultStats().EnqueueFailures)
			}
		}
	}
}

// TestSteadyStateDescentDoesNotAllocate pins the packet path at zero
// allocations on the benchmark's tree shape (token bucket over WF²Q+):
// the closed loop below activates idle leaves and VMs, re-enqueues
// backlogged ones, and defers shaped VMs, all out of reused buffers.
func TestSteadyStateDescentDoesNotAllocate(t *testing.T) {
	for _, layout := range bothLayouts {
		h := layout.mk(policy.TokenBucket(), func(n int) backend.Backend { return backend.NewCoreList(n) })
		const nVMs, nFlows = 4, 4
		diffTwoLevel(h, nVMs, nFlows, 8)
		var seq uint64
		for f := 0; f < nVMs*nFlows; f++ {
			for k := 0; k <= f%2; k++ { // one packet: the flow goes idle every time it is served
				seq++
				h.OnArrival(0, flowq.Packet{Flow: flowq.FlowID(f), Size: 1500, Seq: seq})
			}
		}
		now, sent, empty := clock.Time(0), 0, 0
		step := func() {
			now += 300
			p, ok := h.NextPacket(now)
			if !ok {
				empty++
				return
			}
			sent++
			seq++
			h.OnArrival(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
		}
		for i := 0; i < 2000; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("%s: %v allocs per NextPacket+OnArrival, want 0", layout.name, allocs)
		}
		if sent == 0 || empty == 0 {
			t.Errorf("%s: %d packets sent, %d empty rounds: the loop must see both", layout.name, sent, empty)
		}
	}
}

// TestNestedDeferralPutsBranchesBack blocks a whole branch two levels
// deep: the root picks A, A picks A1 and then A2, both token-bucket nodes
// whose only leaf has no tokens yet, so A1 and A2 are set aside by A and A
// by the root, all on one shared stack. B must be served past them, every
// deferred node must be back in its parent's logical PIEO afterwards, and
// the blocked leaves go out once their buckets fill — identically in both
// layouts.
func TestNestedDeferralPutsBranchesBack(t *testing.T) {
	for _, layout := range bothLayouts {
		h := layout.mk(policy.RoundRobin(), func(n int) backend.Backend { return backend.NewCoreList(n) })
		a := h.Root().AddNode("A", policy.RoundRobin())
		a1 := a.AddNode("A1", policy.TokenBucket())
		a2 := a.AddNode("A2", policy.TokenBucket())
		a1.AddFlow(1)
		a2.AddFlow(2)
		h.Root().AddNode("B", policy.RoundRobin()).AddFlow(3)
		h.Build()
		for _, f := range []flowq.FlowID{1, 2} {
			h.Leaf(f).RateGbps = 8 // 1 byte/ns: a 1000-byte packet is eligible at t=1000
			h.Leaf(f).Burst = 1000
		}
		for _, f := range []flowq.FlowID{1, 2, 3} {
			h.OnArrival(0, flowq.Packet{Flow: f, Size: 1000, Seq: uint64(f)})
		}

		if p, ok := h.NextPacket(0); !ok || p.Flow != 3 {
			t.Fatalf("%s: NextPacket(0) = %+v,%v want flow 3 past the blocked branch", layout.name, p, ok)
		}
		if _, ok := h.NextPacket(500); ok {
			t.Fatalf("%s: a blocked leaf was served before its send_time", layout.name)
		}
		for _, n := range []*Node{a, a1, a2} {
			if !n.parent.part.tracks(n.Self().ID) || len(n.part.heap) == 0 {
				t.Fatalf("%s: node %s left out after deferral: resident=%v, children resident %d", layout.name, n.Name, n.parent.part.tracks(n.Self().ID), n.part.residents())
			}
		}
		if len(h.deferred) != 0 {
			t.Fatalf("%s: %d children left on the deferral stack", layout.name, len(h.deferred))
		}
		if got, want := a.Stats(), (NodeStats{Enqueues: 6, Dequeues: 4, EmptyDequeues: 2}); got != want {
			t.Fatalf("%s: node A stats %+v, want %+v", layout.name, got, want)
		}
		for _, want := range []flowq.FlowID{1, 2} {
			if p, ok := h.NextPacket(1000); !ok || p.Flow != want {
				t.Fatalf("%s: NextPacket(1000) = %+v,%v want flow %d", layout.name, p, ok, want)
			}
		}
		if _, ok := h.NextPacket(1000); ok || h.Backlog() != 0 {
			t.Fatalf("%s: backlog %d after draining", layout.name, h.Backlog())
		}
		checkDepths(t, layout.name, h)
	}
}

// phantomBackend answers its next ranged dequeue of the range starting at
// lo with an element that is not a resident there, as a corrupted list
// would.
type phantomBackend struct {
	backend.Backend
	lo      uint32
	phantom *core.Entry
}

func (b *phantomBackend) DequeueRange(t clock.Time, lo, hi uint32) (core.Entry, bool) {
	if e := b.phantom; e != nil && lo == b.lo {
		b.phantom = nil
		return *e, true
	}
	return b.Backend.DequeueRange(t, lo, hi)
}

// TestUnknownChildFault covers the one check that finds a child by
// position: a ranged dequeue that returns anything but a resident child
// of the node — an ID below or above its band, or an idle child inside it
// — is a core.ErrUnknownFlow fault charged to that node, in either
// arrangement, and the descent carries on to the real winner.
func TestUnknownChildFault(t *testing.T) {
	for _, layout := range bothLayouts {
		for _, kind := range []string{"below", "above", "idle"} {
			var be *phantomBackend
			h := layout.mk(policy.RoundRobin(), func(n int) backend.Backend {
				be = &phantomBackend{Backend: backend.NewCoreList(n)}
				return be // per-level: the last level built is the deepest
			})
			var vms []*Node
			for v := 0; v < 2; v++ {
				vm := h.Root().AddNode("vm", policy.RoundRobin())
				vm.AddFlow(flowq.FlowID(2 * v))
				vm.AddFlow(flowq.FlowID(2*v + 1))
				vms = append(vms, vm)
			}
			h.Build()
			h.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})

			// vm1's band holds flows 2 and 3; only flow 2 is backlogged.
			lo, hi := h.Leaf(2).ID, h.Leaf(3).ID
			id := map[string]uint32{"below": lo - 1, "above": hi + 1, "idle": hi}[kind]
			be.lo, be.phantom = lo, &core.Entry{ID: id}
			ctx := fmt.Sprintf("%s, %s id %d", layout.name, kind, id)
			if p, ok := h.NextPacket(0); !ok || p.Flow != 2 {
				t.Fatalf("%s: NextPacket = %+v,%v want flow 2 after the phantom", ctx, p, ok)
			}
			if be.phantom != nil {
				t.Fatalf("%s: the phantom was never returned", ctx)
			}
			if h.FaultStats().UnknownFlows != 1 || vms[1].FaultStats().UnknownFlows != 1 || !errors.Is(h.LastFault(), core.ErrUnknownFlow) {
				t.Fatalf("%s: faults %+v, node %+v, last %v", ctx, h.FaultStats(), vms[1].FaultStats(), h.LastFault())
			}
			if len(vms[1].part.heap) != 0 || h.Backlog() != 0 {
				t.Fatalf("%s: vm children resident %d, backlog %d after the only packet left", ctx, vms[1].part.residents(), h.Backlog())
			}
			if _, ok := h.NextPacket(0); ok {
				t.Fatalf("%s: a packet after the backlog drained", ctx)
			}
		}
	}
}

// A packet for a flow the control plane never configured comes off the
// wire, so it is a declared drop charged to the root, not a crash: the
// backlog does not change and known flows are still served.
func TestUnconfiguredFlowArrivalIsDropped(t *testing.T) {
	for name, newH := range map[string]func(float64, *Policy) *Hierarchy{"per-level": New, "partitioned": NewPartitioned} {
		h := newH(linkGbps, policy.RoundRobin())
		vm := h.Root().AddNode("vm", policy.RoundRobin())
		vm.AddFlow(0)
		vm.AddFlow(1)
		h.Build()
		h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
		h.OnArrival(0, flowq.Packet{Flow: 7, Size: 100})
		if h.Backlog() != 1 {
			t.Fatalf("%s: Backlog = %d after one known and one unconfigured packet", name, h.Backlog())
		}
		if f := h.FaultStats(); f != (backend.FaultStats{DroppedPackets: 1}) || h.Root().FaultStats() != f {
			t.Fatalf("%s: faults %+v, root %+v; want one dropped packet charged to the root", name, f, h.Root().FaultStats())
		}
		if !errors.Is(h.LastFault(), core.ErrUnknownFlow) {
			t.Fatalf("%s: LastFault = %v, want core.ErrUnknownFlow", name, h.LastFault())
		}
		h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100})
		for _, want := range []flowq.FlowID{1, 0} {
			if p, ok := h.NextPacket(0); !ok || p.Flow != want {
				t.Fatalf("%s: NextPacket = %+v,%v want flow %d", name, p, ok, want)
			}
		}
		if h.Backlog() != 0 {
			t.Fatalf("%s: Backlog = %d after draining", name, h.Backlog())
		}
	}
}

// A token-bucket child whose rate cannot cover its deficit in any
// representable time gets send_time = rank = clock.Never, never a wrapped
// instant just before now. Ranks are 48 bits wide in either layout, so
// the child is refused out loud with ErrRankOverflow: nothing is sent, no
// wake is armed, the sibling with a real rate is served on time, and the
// child is never released unshaped.
func TestTokenBucketUnreachableSendTimeParks(t *testing.T) {
	testTokenBucketParks(t, 1e-300) // so small the quotient overflows
}

// A zero (unconfigured) rate parks the same way, without a panic: the
// flat and hierarchical token buckets are one policy.
func TestTokenBucketZeroRateParks(t *testing.T) {
	testTokenBucketParks(t, 0)
}

func testTokenBucketParks(t *testing.T, slowRate float64) {
	for name, newH := range map[string]func(float64, *Policy) *Hierarchy{"per-level": New, "partitioned": NewPartitioned} {
		t.Run(name, func(t *testing.T) {
			h := newH(linkGbps, policy.TokenBucket())
			slow := h.Root().AddNode("slow", policy.RoundRobin())
			slow.AddFlow(0)
			fast := h.Root().AddNode("fast", policy.RoundRobin())
			fast.AddFlow(1)
			h.Build()
			slow.Self().RateGbps = slowRate
			slow.Self().Burst = 1500
			fast.Self().RateGbps = 12 // 150 B accrued by t=100; 1350 B deficit = 900 ns
			fast.Self().Burst = 1500

			sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
			var sentAt []clock.Time
			sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
				if p.Flow != 1 {
					t.Errorf("flow %d sent at %v: its bucket can never cover a packet", p.Flow, now)
				}
				sentAt = append(sentAt, now)
			}
			sim.InjectOne(100, flowq.Packet{Flow: 0, Size: 1500})
			sim.InjectOne(100, flowq.Packet{Flow: 1, Size: 1500})
			end := sim.Run(clock.Never)
			if len(sentAt) != 1 || sentAt[0] != 1000+300 {
				t.Fatalf("fast flow transmissions completed at %v, want one at 1300 (released at 1000)", sentAt)
			}
			if end != 1300 {
				t.Fatalf("Run(Never) = %v, want 1300: the parked child must not arm a wake", end)
			}
			if at, ok := h.NextWake(end); ok {
				t.Fatalf("NextWake = %v,true with only a never-eligible child queued", at)
			}
			if h.Backlog() != 1 {
				t.Fatalf("backlog %d, want the parked packet held", h.Backlog())
			}
			if err := h.LastFault(); !errors.Is(err, ErrRankOverflow) {
				t.Fatalf("LastFault = %v, want ErrRankOverflow for rank = never", err)
			}
		})
	}
}

// TestHeadPacketPoliciesAtInteriorNode: RCSP, EDF and LSTF rank a node's
// leaves by what their head packets carry, so a node below the root runs
// them with no code of its own. Flow 2 has the earliest deadline but is
// not eligible before 500; priorities are 3, 1, 2.
func TestHeadPacketPoliciesAtInteriorNode(t *testing.T) {
	for _, c := range []struct {
		pol  *Policy
		want []flowq.FlowID
	}{
		{policy.EDF(), []flowq.FlowID{2, 3, 1}},
		{policy.LSTF(), []flowq.FlowID{2, 3, 1}},
		{policy.RCSP(), []flowq.FlowID{3, 1, 2}},
	} {
		for layout, newH := range map[string]func(float64, *Policy) *Hierarchy{"per-level": New, "partitioned": NewPartitioned} {
			h := newH(linkGbps, policy.RoundRobin())
			inner := h.Root().AddNode("inner", c.pol)
			for id := flowq.FlowID(1); id <= 3; id++ {
				inner.AddFlow(id)
			}
			h.Build()
			h.Leaf(1).Priority, h.Leaf(2).Priority, h.Leaf(3).Priority = 3, 1, 2
			h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Deadline: 3000})
			h.OnArrival(0, flowq.Packet{Flow: 2, Size: 100, Deadline: 1000, SendAt: 500})
			h.OnArrival(0, flowq.Packet{Flow: 3, Size: 100, Deadline: 2000})
			var got []flowq.FlowID
			for now := clock.Time(0); now <= 1000; now += 100 {
				if p, ok := h.NextPacket(now); ok {
					got = append(got, p.Flow)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s, %s: sent flows %v, want %v", c.pol.Name, layout, got, c.want)
			}
		}
	}
}
