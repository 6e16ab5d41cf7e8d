// NIC datapath: the full Fig 1 pipeline on real frames. Raw
// Ethernet/IPv4 packets from three tenants are decoded, classified into
// flows by 5-tuple, queued per flow, and scheduled by WF²Q+ with
// per-tenant weights — the end-to-end shape of a programmable NIC
// scheduler.
//
// Run: go run ./examples/nicpath
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"pieo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nicpath:", err)
		os.Exit(1)
	}
}

// run drives the pipeline and writes the report to w. It fails if a
// frame was dropped on the way in or a tenant's share of the link is
// more than 2 % off its weight.
func run(w io.Writer) error {
	const (
		linkGbps = 40
		duration = pieo.Time(5_000_000) // 5 ms
	)

	// Three tenants, identified by source subnet; weight by SLA tier.
	tenantOf := func(t pieo.FiveTuple) int { return int(t.SrcIP[2]) }
	weights := []uint64{4, 2, 1}

	s := pieo.NewScheduler(pieo.WF2Q(), 64, linkGbps)
	classifier := pieo.NewClassifier(64)
	var decoder pieo.FrameDecoder

	sim := pieo.NewSim(pieo.Link{RateGbps: linkGbps}, s)
	tenantBytes := make([]uint64, 3)
	flowTenant := map[pieo.FlowID]int{}
	var seq uint64
	drops := 0

	// ingest decodes a frame, classifies it, and hands it to the
	// scheduler — the NIC receive-to-TX-queue path.
	ingest := func(at pieo.Time, frame []byte) {
		tuple, err := decoder.Decode(frame)
		if err != nil {
			fmt.Fprintln(w, "drop:", err)
			drops++
			return
		}
		id, ok := classifier.Classify(tuple)
		if !ok {
			fmt.Fprintln(w, "drop: flow table full")
			drops++
			return
		}
		if _, seen := flowTenant[id]; !seen {
			tenant := tenantOf(tuple)
			flowTenant[id] = tenant
			s.SetWeight(id, weights[tenant])
		}
		seq++
		sim.InjectOne(at, pieo.Packet{Flow: id, Size: uint32(len(frame)), Seq: seq})
	}

	// Traffic: each tenant runs four UDP flows of MTU frames; tenants
	// stay backlogged via closed-loop regeneration.
	rng := rand.New(rand.NewSource(1))
	frameFor := func(tenant, flow int) []byte {
		return pieo.BuildFrame(pieo.FiveTuple{
			SrcIP:    [4]byte{10, 0, byte(tenant), byte(flow)},
			DstIP:    [4]byte{192, 168, 0, 1},
			SrcPort:  uint16(10000 + flow),
			DstPort:  443,
			Protocol: 17, // UDP
		}, 1400+rng.Intn(58))
	}
	sim.OnTransmit = func(now pieo.Time, p pieo.Packet) {
		tenant := flowTenant[p.Flow]
		tenantBytes[tenant] += uint64(p.Size)
		ingest(now, frameFor(tenant, int(p.Flow)%4)) // keep the tenant backlogged
	}
	for tenant := 0; tenant < 3; tenant++ {
		for flow := 0; flow < 4; flow++ {
			for k := 0; k < 4; k++ {
				ingest(0, frameFor(tenant, flow))
			}
		}
	}

	sim.Run(duration)

	fmt.Fprintf(w, "decoded+classified %d flows across 3 tenants; %d frames on the wire\n",
		classifier.Flows(), sim.Sent())
	var totalW uint64
	for _, w := range weights {
		totalW += w
	}
	fmt.Fprintln(w, "tenant  weight  ideal Gbps  measured Gbps")
	var err error
	for tenant, b := range tenantBytes {
		ideal := float64(linkGbps) * float64(weights[tenant]) / float64(totalW)
		measured := float64(b) * 8 / float64(duration)
		fmt.Fprintf(w, "%-6d  %-6d  %-10.2f  %.2f\n", tenant, weights[tenant], ideal, measured)
		if measured < 0.98*ideal || measured > 1.02*ideal {
			err = fmt.Errorf("tenant %d measured %.2f Gbps against an ideal of %.2f", tenant, measured, ideal)
		}
	}
	if drops != 0 || classifier.Flows() != 12 || sim.FaultStats() != (pieo.FaultStats{}) {
		err = fmt.Errorf("%d frames dropped, %d flows classified (want 12), faults %+v", drops, classifier.Flows(), sim.FaultStats())
	}
	return err
}
