package pieo

import "testing"

// flatPath is the Fig 1 path on real frames, closed loop: every frame
// goes wire decode → classify → Sim.InjectOne → scheduler → link, and
// each transmitted packet re-ingests one frame of its flow. It is the
// shape of the benchmark's nicpath_flat workload at test size.
type flatPath struct {
	frames [][]byte
	dec    FrameDecoder
	cls    *Classifier
	sch    *Scheduler
	sim    *Sim
	seq    uint64
	until  Time
	errs   int
}

const flatPathGbps = 40

func newFlatPath(prog *Program, flows, inFlight int) *flatPath {
	p := &flatPath{
		frames: make([][]byte, flows),
		cls:    NewClassifier(flows),
		sch:    NewScheduler(prog, flows, flatPathGbps),
	}
	for i := range p.frames {
		payload := 18 // 60-byte frames, and every fourth flow near-MTU
		if i%4 == 3 {
			payload = 1412
		}
		p.frames[i] = BuildFrame(FiveTuple{
			SrcIP:    [4]byte{10, byte(i * 7), byte(i >> 8), byte(i)},
			DstIP:    [4]byte{192, 168, byte(i * 13), 1},
			SrcPort:  uint16(1024 + i*37),
			DstPort:  443,
			Protocol: 17,
		}, payload)
	}
	p.sim = NewSim(Link{RateGbps: flatPathGbps}, p.sch)
	p.sim.OnTransmit = func(now Time, pkt Packet) { p.ingest(now, int(pkt.Flow)) }
	for k := 0; k < inFlight; k++ {
		for i := range p.frames {
			p.ingest(0, i)
			if k == 0 {
				// Shaped to half the link in total, with a bucket of two
				// frames: a token bucket idles on wake events, the
				// work-conserving programs ignore the fields.
				f := p.sch.Flow(FlowID(i))
				f.RateGbps = flatPathGbps / 2 / float64(flows)
				f.Burst = 2 * float64(len(p.frames[i]))
				p.sch.SetWeight(FlowID(i), uint64(1+i%4))
			}
		}
	}
	return p
}

// ingest is the receive path: decode, classify, queue.
func (p *flatPath) ingest(at Time, flow int) {
	frame := p.frames[flow]
	tuple, err := p.dec.Decode(frame)
	if err != nil {
		p.errs++
		return
	}
	id, ok := p.cls.Classify(tuple)
	if !ok || int(id) != flow {
		p.errs++
		return
	}
	p.seq++
	p.sim.InjectOne(at, Packet{Flow: id, Size: uint32(len(frame)), Seq: p.seq})
}

// run advances the simulation by ns of link time.
func (p *flatPath) run(ns Time) {
	p.until += ns
	p.sim.Run(p.until)
}

// TestFlatPathSteadyStateZeroAllocs pins the flat path's allocation
// count: once flow queues, the event heap and the burst buffer have
// reached their working size, a packet costs no heap allocation from
// frame to wire — for a work-conserving program, one with multi-packet
// bursts, and a shaped one that idles the link on wake events.
func TestFlatPathSteadyStateZeroAllocs(t *testing.T) {
	for _, prog := range []*Program{WF2Q(), DRR(), TokenBucket()} {
		p := newFlatPath(prog, 256, 2)
		p.run(2_000_000) // warm-up: 2 ms of link time
		sent := p.sim.Sent()
		allocs := testing.AllocsPerRun(20, func() { p.run(100_000) })
		perRun := (p.sim.Sent() - sent) / 21 // AllocsPerRun runs the function once more to warm up
		if perRun < 100 {
			t.Fatalf("%s: only %d packets per measured run", prog.Name, perRun)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per %d packets, want 0", prog.Name, allocs, perRun)
		}
		if p.errs != 0 || p.sch.Drops() != 0 || p.sim.FaultStats() != (FaultStats{}) {
			t.Errorf("%s: %d ingest errors, %d drops, faults %+v", prog.Name, p.errs, p.sch.Drops(), p.sim.FaultStats())
		}
	}
}

// BenchmarkFlatPath measures the whole flat path per transmitted packet
// at the benchmark's size: 4096 flows, two frames in flight each, WF²Q+.
func BenchmarkFlatPath(b *testing.B) {
	p := newFlatPath(WF2Q(), 4096, 2)
	p.run(1_000_000)
	start := p.sim.Sent()
	b.ReportAllocs()
	b.ResetTimer()
	for p.sim.Sent()-start < uint64(b.N) {
		p.run(10_000)
	}
	b.StopTimer()
	if p.errs != 0 {
		b.Fatalf("%d ingest errors", p.errs)
	}
}
