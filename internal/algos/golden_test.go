package algos

import (
	"math/rand"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/pktgen"
	"pieo/internal/sched"
)

// goldenArrivals is a seeded open-loop mix over 12 flows — Poisson with
// bimodal sizes, CBR, on-off bursts and a backlogged block — small
// enough to run in milliseconds and varied enough that queues build,
// drain and go idle. Every packet carries SendAt = arrival + a per-flow
// offset so the input-triggered programs have something to pace on.
func goldenArrivals() []pktgen.Arrival {
	var gens []pktgen.Generator
	for i := 0; i < 12; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		id := flowq.FlowID(i)
		switch i % 4 {
		case 0:
			gens = append(gens, &pktgen.Poisson{Flow: id, MeanGap: 900, Count: 400, Rng: rng,
				Size: &pktgen.BimodalSize{Small: 64, Large: 1500, FracSmall: 0.7, Rng: rng}})
		case 1:
			gens = append(gens, &pktgen.CBR{Flow: id, Gap: 700, Start: clock.Time(50 * i), Count: 400,
				Size: &pktgen.UniformSize{Min: 64, Max: 400, Rng: rng}})
		case 2:
			gens = append(gens, &pktgen.OnOff{Flow: id, BurstLen: 16, PktGap: 20, IdleGap: 12_000, Count: 400,
				Size: pktgen.FixedSize(200 + 100*uint32(i))})
		case 3:
			gens = append(gens, &pktgen.Backlogged{Flow: id, Count: 150,
				Size: &pktgen.UniformSize{Min: 64, Max: 1500, Rng: rng}})
		}
	}
	arrivals := pktgen.Merge(gens...)
	for i := range arrivals {
		a := &arrivals[i]
		a.Pkt.SendAt = a.At + clock.Time(37*uint64(a.Pkt.Flow))
	}
	return arrivals
}

// scheduleDigest runs the golden mix through prog and folds every
// transmission — flow, seq, completion instant — into one FNV-1a word.
func scheduleDigest(t *testing.T, prog *sched.Program, configure func(*sched.Scheduler)) (digest uint64, sent uint64) {
	t.Helper()
	s := sched.New(prog, 64, linkGbps)
	for i := 0; i < 12; i++ {
		s.SetWeight(flowq.FlowID(i), uint64(1+i%3))
	}
	if configure != nil {
		configure(s)
	}
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	digest = 14695981039346656037
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			digest = (digest ^ (x & 0xff)) * 1099511628211
			x >>= 8
		}
	}
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		mix(uint64(p.Flow))
		mix(p.Seq)
		mix(uint64(now))
	}
	arrivals := goldenArrivals()
	sim.Inject(arrivals)
	sim.Run(clock.Never - 1)
	if int(sim.Sent()) != len(arrivals) {
		t.Fatalf("%s: sent %d of %d arrivals", prog.Name, sim.Sent(), len(arrivals))
	}
	if got := s.Backlog(); got != 0 {
		t.Fatalf("%s: backlog %d after drain", prog.Name, got)
	}
	assertNoFaults(t, prog.Name, s)
	return digest, sim.Sent()
}

// assertNoFaults fails t when s absorbed any fault. A scheduler counts a
// fault instead of panicking, so a run that should be fault-free must
// say so through its counters.
func assertNoFaults(t *testing.T, name string, s *sched.Scheduler) {
	t.Helper()
	if fs := s.FaultStats(); fs != (backend.FaultStats{}) || s.LastFault() != nil {
		t.Fatalf("%s: faults %+v, last %v", name, fs, s.LastFault())
	}
}

// TestGoldenScheduleDigests pins the exact schedules — who left, in
// which order, at which instant — of four programs that between them
// exercise every kind of simulator event and both trigger models. The
// digests were recorded at commit 6d40549, before events became typed
// records and bursts moved into the scheduler-owned buffer.
func TestGoldenScheduleDigests(t *testing.T) {
	shaped := func(s *sched.Scheduler) {
		for i := 0; i < 12; i++ {
			f := s.Flow(flowq.FlowID(i))
			f.RateGbps = 0.5 + 0.25*float64(i)
			f.Burst = 3000
			f.Tokens = f.Burst
		}
	}
	cases := []struct {
		name      string
		prog      *sched.Program
		configure func(*sched.Scheduler)
		want      uint64
	}{
		{"wf2q+", WF2Q(), nil, 0xdbb39bab12b744d9},
		// Quantum 1500 against 64..400-byte packets: multi-packet bursts
		// drain through Scheduler.pending.
		{"drr", DRR(), nil, 0xfc61a8bb09c7d2d8},
		// Shaped below the offered load: the link idles on wake events.
		{"token-bucket", TokenBucket(), shaped, 0xbfe809a700bf7dd0},
		// Input-triggered: PrePacket writes the packet it is handed.
		{"pacer", Pacer(), nil, 0x7990af08d4de0da4},
		{"token-bucket-input", TokenBucketInput(), shaped, 0xf709539df9a47733},
	}
	for _, c := range cases {
		got, sent := scheduleDigest(t, c.prog, c.configure)
		if got != c.want {
			t.Errorf("%s: schedule digest %#016x over %d packets, want %#016x", c.name, got, sent, c.want)
		}
	}
}
