package main

import (
	"fmt"
	"math"

	"pieo"
	"pieo/internal/hier"
)

const linkGbps = 40

// simLoop is what the two netsim workloads share: a closed loop in
// which every transmitted packet re-ingests one packet of its flow, run
// in slices of simulated time until enough packets are out.
type simLoop struct {
	tr    *tracer
	sim   *pieo.Sim
	slice pieo.Time // simulated ns per Sim.Run call, about one block
	until pieo.Time // end of the last slice run
	bc    *blockClock

	list     pieo.Backend // the scheduler's ordered list, as the workload built it
	hwStart  pieo.ListStats
	startSeq uint64 // seq as the timed region began

	seq       uint64 // packets injected so far; the last one's Seq
	delivered uint64
	lastSeq   []uint64 // per flow, for the FIFO check
	fifoViol  int64
	digest    uint64
	runCalls  int64
}

func newSimLoop(tr *tracer, flows int, slice pieo.Time) simLoop {
	return simLoop{tr: tr, slice: slice, lastSeq: make([]uint64, flows), digest: digestSeed}
}

// inject hands one packet to the simulator at time at.
func (l *simLoop) inject(at pieo.Time, flow pieo.FlowID, size uint32) {
	l.seq++
	l.tr.begin(kInject)
	l.sim.InjectOne(at, pieo.Packet{Flow: flow, Size: size, Seq: l.seq})
	l.tr.end()
}

// deliver records one transmitted packet: per-flow FIFO by Seq and
// the schedule digest (who left, in which order, at which instant).
func (l *simLoop) deliver(now pieo.Time, p pieo.Packet) {
	l.delivered++
	if p.Seq <= l.lastSeq[p.Flow] {
		l.fifoViol++
	}
	l.lastSeq[p.Flow] = p.Seq
	l.digest = mix(mix(mix(l.digest, uint64(p.Flow)), p.Seq), uint64(now))
	if l.bc != nil {
		l.bc.tick()
		l.tr.packetDone()
	}
}

// runUntil advances the simulation until `target` packets have been
// delivered in total. The overshoot past target is at most one slice
// and the same for every run of a seed.
func (l *simLoop) runUntil(target uint64) {
	idle := 0
	for l.delivered < target {
		before := l.delivered
		l.until += l.slice
		l.tr.begin(kSimRun)
		l.sim.Run(l.until)
		l.tr.end()
		l.runCalls++
		// A shaped link may legitimately sit out a slice; a closed loop
		// never sits out a thousand.
		if idle++; l.delivered != before {
			idle = 0
		} else if idle > 1000 {
			panic("bench: simulation stalled: 1000 slices delivered nothing")
		}
	}
}

// timed runs the timed region: `packets` more deliveries, clocked by bc.
func (l *simLoop) timed(bc *blockClock, packets int) {
	l.bc = bc
	l.hwStart = hwStats(l.list)
	l.startSeq = l.seq
	l.runCalls = 0
	target := l.delivered + uint64(packets)
	l.tr.beginRun()
	bc.start()
	l.runUntil(target)
	l.tr.endRun()
}

// conservation checks injected = delivered + resident + declared drops,
// allowing the one packet that may be on the wire between slices.
func (l *simLoop) conservation(backlog int, drops uint64) error {
	onWire := int64(l.seq) - int64(l.delivered) - int64(backlog) - int64(drops)
	if onWire < 0 || onWire > 1 {
		return fmt.Errorf("conservation: injected %d != delivered %d + resident %d + drops %d (+ at most 1 on the wire)",
			l.seq, l.delivered, backlog, drops)
	}
	if l.fifoViol != 0 {
		return fmt.Errorf("per-flow FIFO violated %d times", l.fifoViol)
	}
	return nil
}

// hwCounters turns the list's hardware-model counters, taken over the
// timed region, into per-operation figures. They are exact for a seed.
func hwCounters(start, end pieo.ListStats, layer map[string]float64) {
	ops := float64((end.Enqueues - start.Enqueues) + (end.Dequeues - start.Dequeues) +
		(end.EmptyDequeues - start.EmptyDequeues) + (end.FlowDequeues - start.FlowDequeues) +
		(end.RangeDequeues - start.RangeDequeues))
	if ops == 0 {
		return
	}
	layer["core.hw_cycles_per_op"] = float64(end.Cycles-start.Cycles) / ops
	layer["core.sram_reads_per_op"] = float64(end.SublistReads-start.SublistReads) / ops
	layer["core.sram_writes_per_op"] = float64(end.SublistWrites-start.SublistWrites) / ops
	layer["core.elem_compares_per_op"] = float64(end.ElemCompares-start.ElemCompares) / ops
}

func hwStats(b pieo.Backend) pieo.ListStats { return b.(pieo.HardwareModeled).HardwareStats() }

// --- nicpath_flat ---

const (
	nicFlows    = 4096
	nicInFlight = 2
	nicSmall    = 60   // frame bytes
	nicLarge    = 1454 // frame bytes
	udpOverhead = 42   // Ethernet + IPv4 + UDP headers
)

var nicWeights = [4]uint64{8, 4, 2, 1}

type nicpath struct {
	simLoop
	p      params
	frames [][]byte // one pre-built frame per flow
	dec    pieo.FrameDecoder
	cls    *pieo.Classifier
	sch    *pieo.Scheduler

	decodeErrs, refusals int64
	classBytes           [4]uint64
}

func newNicpath(p params) *nicpath {
	tr := p.tracer(0)
	// Mean frame 0.75*60 + 0.25*1454 bytes; one slice is about a block.
	slice := pieo.Time(float64(p.block) * (0.75*nicSmall + 0.25*nicLarge) * 8 / linkGbps)
	n := &nicpath{simLoop: newSimLoop(tr, nicFlows, slice), p: p}

	// Flow i is in weight class i%4; exactly a quarter of each class
	// sends large frames, the seed choosing which flows and addresses.
	r := newRng(p.seed, 1)
	large := make([]bool, nicFlows)
	for c := 0; c < 4; c++ {
		for j, l := range pickSubset(r, nicFlows/4, nicFlows/16) {
			large[j*4+c] = l
		}
	}
	n.frames = make([][]byte, nicFlows)
	for i := range n.frames {
		size := nicSmall
		if large[i] {
			size = nicLarge
		}
		n.frames[i] = pieo.BuildFrame(pieo.FiveTuple{
			SrcIP:    [4]byte{10, byte(r.intn(256)), byte(i >> 8), byte(i)},
			DstIP:    [4]byte{192, 168, byte(r.intn(256)), 1},
			SrcPort:  uint16(1024 + r.intn(60000)),
			DstPort:  443,
			Protocol: 17,
		}, size-udpOverhead)
	}

	n.cls = pieo.NewClassifier(nicFlows)
	n.list = newCoreList(nicFlows, tr)
	n.sch = pieo.NewSchedulerOn(pieo.WF2Q(), n.list, linkGbps)
	var s pieo.SimScheduler = n.sch
	if tr != nil {
		s = &tracedSched{in: n.sch, t: tr}
	}
	n.sim = pieo.NewSim(pieo.Link{RateGbps: linkGbps}, s)
	n.sim.OnTransmit = n.onTransmit

	// The classifier hands out IDs in first-seen order, so ingesting
	// flow by flow makes FlowID == flow index.
	for i := 0; i < nicFlows; i++ {
		n.ingest(0, i)
		n.sch.SetWeight(pieo.FlowID(i), nicWeights[i%4])
	}
	for k := 1; k < nicInFlight; k++ {
		for i := 0; i < nicFlows; i++ {
			n.ingest(0, i)
		}
	}
	return n
}

// ingest is the NIC receive path: decode the frame, classify its
// 5-tuple, queue the packet.
func (n *nicpath) ingest(at pieo.Time, flow int) {
	frame := n.frames[flow]
	n.tr.begin(kDecode)
	tuple, err := n.dec.Decode(frame)
	n.tr.end()
	if err != nil {
		n.decodeErrs++
		return
	}
	n.tr.begin(kClassify)
	id, ok := n.cls.Classify(tuple)
	n.tr.end()
	if !ok || int(id) != flow {
		n.refusals++
		return
	}
	n.inject(at, id, uint32(len(frame)))
}

func (n *nicpath) onTransmit(now pieo.Time, p pieo.Packet) {
	n.tr.begin(kCallback)
	n.tr.setReq(p.Seq)
	n.classBytes[p.Flow%4] += uint64(p.Size)
	n.deliver(now, p)
	n.ingest(now, int(p.Flow))
	n.tr.end()
}

func (n *nicpath) warmUp() { n.runUntil(uint64(n.p.warm)) }

func (n *nicpath) run(clocks []*blockClock) {
	n.classBytes = [4]uint64{}
	n.timed(clocks[0], n.p.packets)
}

func (n *nicpath) finish() (outcome, error) {
	fs := n.sch.FaultStats()
	drops := n.sch.Drops() + fs.DroppedPackets
	failed := n.decodeErrs + n.refusals + int64(drops) + int64(fs.EnqueueFailures)
	if err := n.conservation(n.sch.Backlog(), drops); err != nil {
		return outcome{}, err
	}
	if err := n.list.(pieo.InvariantChecker).CheckInvariants(); err != nil {
		return outcome{}, fmt.Errorf("core invariants: %w", err)
	}
	if n.cls.Flows() != nicFlows {
		return outcome{}, fmt.Errorf("classifier holds %d flows, want %d", n.cls.Flows(), nicFlows)
	}

	// Enforcement: byte share per weight class against weight share.
	var total, sumW float64
	for c := range n.classBytes {
		total += float64(n.classBytes[c])
		sumW += float64(nicWeights[c])
	}
	var errSum float64
	for c := range n.classBytes {
		entitled := float64(nicWeights[c]) / sumW
		errSum += math.Abs(float64(n.classBytes[c])/total-entitled) / entitled
	}

	out := outcome{
		packets:   int64(n.bc.total),
		attempted: int64(n.seq-n.startSeq) + n.decodeErrs + n.refusals,
		failed:    failed,
		digest:    n.digest, hasDigest: true,
		rateErr: 100 * errSum / float64(len(n.classBytes)),
		layer: map[string]float64{
			"wire.errors":        float64(n.decodeErrs + n.refusals),
			"netsim.utilization": n.sim.Utilization(),
			"netsim.run.calls":   float64(n.runCalls),
			"sched.drops":        float64(drops),
		},
	}
	hwCounters(n.hwStart, hwStats(n.list), out.layer)
	return out, nil
}

// --- hier_partitioned ---

const (
	hierVMs      = 100
	hierFlows    = 100 // per VM
	hierInFlight = 4
	hierSmall    = 64
	hierLarge    = 1500
	hierLoad     = 0.9 // sum of VM limits as a share of the link
)

type hierPart struct {
	simLoop
	p     params
	h     *pieo.Hierarchy
	sizes []uint32  // per flow
	limit []float64 // per VM, Gbps

	vmBytes  []uint64
	simStart pieo.Time
}

func newHierPart(p params) *hierPart {
	tr := p.tracer(0)
	const leaves = hierVMs * hierFlows
	meanWire := float64(hierSmall+hierLarge) / 2 * 8 / (hierLoad * linkGbps)
	n := &hierPart{
		simLoop: newSimLoop(tr, leaves, pieo.Time(float64(p.block)*meanWire)),
		p:       p, vmBytes: make([]uint64, hierVMs),
	}

	// One shared physical list for every node of the tree (sec 4.2).
	// NewHierOn is this constructor with the registry's "core" factory;
	// the factory form is used so the traced pass can wrap the list.
	n.h = hier.NewPartitionedOn(linkGbps, pieo.TokenBucketPolicy(), func(capacity int) pieo.Backend {
		n.list = newCoreList(capacity, tr)
		return n.list
	})
	var vms []*pieo.Node
	for v := 0; v < hierVMs; v++ {
		vm := n.h.Root().AddNode(fmt.Sprintf("vm%d", v), pieo.WF2QPolicy())
		for f := 0; f < hierFlows; f++ {
			vm.AddFlow(pieo.FlowID(v*hierFlows + f))
		}
		vms = append(vms, vm)
	}
	n.h.Build()

	// Per-VM limits spread over 0.5x..1.5x of an equal share and
	// normalized so every seed offers the same 90% aggregate load.
	r := newRng(p.seed, 2)
	n.limit = make([]float64, hierVMs)
	var sum float64
	for v := range n.limit {
		n.limit[v] = 0.5 + r.float()
		sum += n.limit[v]
	}
	for v, vm := range vms {
		n.limit[v] *= hierLoad * linkGbps / sum
		self := vm.Self()
		self.RateGbps = n.limit[v]
		// Deep enough to keep tokens accrued while waiting behind the
		// other VMs (see internal/experiments/hierscale.go); empty at
		// the start, so no VM spends the warm-up and the timed region
		// burning initial credit above its limit.
		self.Burst = 2 * hierVMs * hierLarge
		self.Tokens = 0
	}

	// Exactly half of each VM's flows send large packets.
	n.sizes = make([]uint32, leaves)
	for v := 0; v < hierVMs; v++ {
		for f, l := range pickSubset(r, hierFlows, hierFlows/2) {
			n.sizes[v*hierFlows+f] = hierSmall
			if l {
				n.sizes[v*hierFlows+f] = hierLarge
			}
		}
	}

	var s pieo.SimScheduler = n.h
	if tr != nil {
		s = &tracedSched{in: n.h, t: tr}
	}
	n.sim = pieo.NewSim(pieo.Link{RateGbps: linkGbps}, s)
	n.sim.OnTransmit = n.onTransmit
	for k := 0; k < hierInFlight; k++ {
		for f := 0; f < leaves; f++ {
			n.inject(0, pieo.FlowID(f), n.sizes[f])
		}
	}
	return n
}

func (n *hierPart) onTransmit(now pieo.Time, p pieo.Packet) {
	n.tr.begin(kCallback)
	n.tr.setReq(p.Seq)
	n.vmBytes[int(p.Flow)/hierFlows] += uint64(p.Size)
	n.deliver(now, p)
	n.inject(now, p.Flow, p.Size)
	n.tr.end()
}

func (n *hierPart) warmUp() { n.runUntil(uint64(n.p.warm)) }

func (n *hierPart) run(clocks []*blockClock) {
	clear(n.vmBytes)
	n.simStart = n.sim.Now()
	n.timed(clocks[0], n.p.packets)
}

func (n *hierPart) finish() (outcome, error) {
	fs := n.h.FaultStats()
	drops := fs.DroppedPackets
	if err := n.conservation(n.h.Backlog(), drops); err != nil {
		return outcome{}, err
	}
	if err := n.list.(pieo.InvariantChecker).CheckInvariants(); err != nil {
		return outcome{}, fmt.Errorf("core invariants: %w", err)
	}
	if err := n.h.Partitioner().CheckInvariants(); err != nil {
		return outcome{}, fmt.Errorf("partitioner invariants: %w", err)
	}

	// Enforcement: achieved Gbps against the token-bucket limit, per VM.
	elapsed := float64(n.sim.Now() - n.simStart)
	var errSum float64
	for v, b := range n.vmBytes {
		achieved := float64(b) * 8 / elapsed
		errSum += math.Abs(achieved-n.limit[v]) / n.limit[v]
	}

	out := outcome{
		packets:   int64(n.bc.total),
		attempted: int64(n.seq - n.startSeq),
		failed:    int64(drops + fs.EnqueueFailures),
		digest:    n.digest, hasDigest: true,
		rateErr: 100 * errSum / hierVMs,
		layer: map[string]float64{
			"netsim.utilization": n.sim.Utilization(),
			"netsim.run.calls":   float64(n.runCalls),
			"hier.drops":         float64(drops),
		},
	}
	hwCounters(n.hwStart, hwStats(n.list), out.layer)
	return out, nil
}
