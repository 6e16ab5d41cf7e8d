package algos

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/netsim"
	"pieo/internal/pktgen"
	"pieo/internal/policy"
	"pieo/internal/sched"
)

// A flat scheduler is the one-node tree: each policy of the shared
// catalogue, run by sched over a set of flows and by a one-level hier
// over the same flows as leaves, must send the same packets at the same
// instants, on both hierarchy layouts.

// flowCfg is one flow's control-plane state, applied alike to the flat
// scheduler's flow and the hierarchy's leaf.
type flowCfg struct {
	weight, priority uint64
	rateGbps, burst  float64
}

func (c flowCfg) apply(a *policy.Attrs) {
	a.Priority = c.priority
	a.RateGbps = c.rateGbps
	a.Burst = c.burst
	a.Tokens = c.burst
}

// depth1Cases pairs each catalogue policy with the flat program users
// reach it by; round-robin's is FIFO.
var depth1Cases = []struct {
	flat func() *sched.Program
	pol  func() *policy.Policy
}{
	{FIFO, policy.RoundRobin},
	{StrictPriority, policy.StrictPriority},
	{WFQ, policy.WFQ},
	{WF2Q, policy.WF2Q},
	{TokenBucket, policy.TokenBucket},
	{RCSP, policy.RCSP},
	{EDF, policy.EDF},
	{LSTF, policy.LSTF},
}

// transmission is one packet leaving the link.
type transmission struct {
	flow flowq.FlowID
	seq  uint64
	at   clock.Time
}

// transmissions runs arrivals through s to the end and returns what left
// the link, in order.
func transmissions(s netsim.Scheduler, arrivals []pktgen.Arrival) []transmission {
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
	var out []transmission
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		out = append(out, transmission{p.Flow, p.Seq, now})
	}
	sim.Inject(arrivals)
	sim.Run(clock.Never - 1)
	return out
}

// assertFlatIsDepth1 runs every shared policy over cfgs and arrivals
// flat, and one level deep on both layouts, and fails t at the first
// transmission where they part.
func assertFlatIsDepth1(t *testing.T, ctx string, cfgs []flowCfg, arrivals []pktgen.Arrival) {
	t.Helper()
	layouts := map[string]func(float64, *policy.Policy) *hier.Hierarchy{
		"per-level": hier.New, "partitioned": hier.NewPartitioned,
	}
	for _, c := range depth1Cases {
		s := sched.New(c.flat(), len(cfgs), linkGbps)
		for i, cfg := range cfgs {
			s.SetWeight(flowq.FlowID(i), cfg.weight)
			cfg.apply(&s.Flow(flowq.FlowID(i)).Attrs)
		}
		want := transmissions(s, arrivals)
		if fs := s.FaultStats(); fs != (backend.FaultStats{}) {
			t.Fatalf("%s: flat %s: faults %+v", ctx, c.flat().Name, fs)
		}
		for layout, newH := range layouts {
			name := fmt.Sprintf("%s: %s, %s", ctx, c.pol().Name, layout)
			h := newH(linkGbps, c.pol())
			for i := range cfgs {
				h.Root().AddFlow(flowq.FlowID(i))
			}
			h.Build()
			for i, cfg := range cfgs {
				leaf := h.Leaf(flowq.FlowID(i))
				leaf.Weight = cfg.weight
				cfg.apply(&leaf.Attrs)
			}
			got := transmissions(h, arrivals)
			if fs := h.FaultStats(); fs != (backend.FaultStats{}) {
				t.Fatalf("%s: faults %+v", name, fs)
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("%s: transmission %d is %+v one level deep, %+v flat", name, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d transmissions one level deep, %d flat", name, len(got), len(want))
			}
		}
	}
}

// goldenCfgs is the golden digests' control plane: weights 1-3, shaped
// below the offered load, priorities 0-3.
func goldenCfgs() []flowCfg {
	cfgs := make([]flowCfg, 12)
	for i := range cfgs {
		cfgs[i] = flowCfg{weight: uint64(1 + i%3), priority: uint64(i % 4), rateGbps: 0.5 + 0.25*float64(i), burst: 3000}
	}
	return cfgs
}

// byteMix decodes a flow set and an arrival stream from data: one byte
// for the flow count, three per flow (weight and priority, rate, burst),
// then five per arrival (flow, size, gap, pacing, slack). Three gaps in
// four are under 24 ns, well below a packet's wire time, and the rest up
// to 12.6 µs, so queues build, drain and go idle. A packet's SendAt is up
// to 5.1 µs after its arrival and its Deadline up to 25.5 µs after that.
// A short input is zero-padded.
func byteMix(data []byte) ([]flowCfg, []pktgen.Arrival) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cfgs := make([]flowCfg, 2+next()%15)
	for i := range cfgs {
		wp, rate, burst := next(), next(), next()
		cfgs[i] = flowCfg{
			weight:   uint64(1 + wp%4),
			priority: uint64(wp / 4 % 4),
			rateGbps: 0.25 + float64(rate%64)*0.25,
			burst:    float64(1500 * (1 + int(burst)%4)),
		}
	}
	var arrivals []pktgen.Arrival
	at := clock.Time(0)
	for seq := uint64(1); len(data) > 0; seq++ {
		flow, size, gap, pace, slack := next(), next(), next(), next(), next()
		if gap < 192 {
			at += clock.Time(gap / 8) // a burst: queues build
		} else {
			at += clock.Time(gap-192) * 200 // up to 12.6 µs: queues drain and idle
		}
		sendAt := at + clock.Time(pace)*20
		arrivals = append(arrivals, pktgen.Arrival{At: at, Pkt: flowq.Packet{
			Flow: flowq.FlowID(int(flow) % len(cfgs)), Size: 64 + uint32(size)*5, Seq: seq,
			SendAt: sendAt, Deadline: sendAt + clock.Time(slack)*100,
		}})
	}
	return cfgs, arrivals
}

// TestFlatIsDepth1 pins flat ≡ depth-1 for every policy of depth1Cases
// on the golden mix and on seeded random mixes.
func TestFlatIsDepth1(t *testing.T) {
	assertFlatIsDepth1(t, "golden mix", goldenCfgs(), goldenArrivals())
	for seed := int64(0); seed < 40; seed++ {
		data := make([]byte, 1+3*16+5*300)
		rand.New(rand.NewSource(seed)).Read(data)
		cfgs, arrivals := byteMix(data)
		assertFlatIsDepth1(t, fmt.Sprintf("seed %d", seed), cfgs, arrivals)
	}
}

// FuzzFlatIsDepth1 is TestFlatIsDepth1 over fuzzed flow sets, weights,
// rates and arrivals.
func FuzzFlatIsDepth1(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 255, 0, 1, 255, 0, 2, 255, 0})
	f.Add([]byte{14, 200, 1, 1, 9, 0, 3, 77, 63, 2, 5, 5, 5, 1, 100, 30, 2, 0, 0, 3, 250, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		cfgs, arrivals := byteMix(data)
		assertFlatIsDepth1(t, "fuzz", cfgs, arrivals)
	})
}
