package experiments

import (
	"fmt"
	"math/rand"

	"pieo/internal/algos"
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/sched"
)

// Overload measures goodput under list saturation for the three
// admission policies (backend.AdmissionPolicy): reject, tail-drop, and
// RIFO-style rank-aware push-out. The paper's hardware provisions the
// ordered list for the worst case and never overflows (§5); a software
// deployment shared by more flows than the list holds cannot, so the
// shedding rule becomes part of the scheduling contract.
//
// Setup: a static-priority program over a capacity-C core list, offered
// load swept as a multiple of C concurrently backlogged flows. Flow
// priority equals flow id, so the "premium" set — the C best-priority
// flows — is exactly the set a rank-aware policy should protect. Each
// run conserves packets exactly: arrived = delivered + declared drops.
//
// The measurement: push-out keeps premium delivery near 100% regardless
// of overload because a premium arrival evicts the worst resident, while
// reject and tail-drop let residency go to whoever got there first, so
// premium goodput decays toward C/offered as overload grows.
func Overload() *Table {
	const (
		capacity = 64
		arrivals = 40000
	)
	t := &Table{
		ID:    "overload",
		Title: fmt.Sprintf("Admission policy goodput under overload (C=%d flows)", capacity),
		Columns: []string{
			"policy", "offered flows", "load", "delivered", "goodput",
			"premium goodput", "declared drops", "evictions",
		},
	}
	prog := algos.StrictPriority()
	for _, pol := range []backend.AdmissionPolicy{
		backend.AdmitReject, backend.AdmitTailDrop, backend.AdmitPushOut,
	} {
		for _, load := range []float64{0.5, 1, 2, 4, 8} {
			flows := int(load * capacity)
			s := sched.NewOn(prog, backend.NewCoreList(capacity), 10)
			s.Admission = pol
			for id := 1; id <= flows; id++ {
				s.Flow(flowq.FlowID(id)).Priority = uint64(id)
			}

			rng := rand.New(rand.NewSource(int64(flows)*31 + int64(pol)))
			now := clock.Time(0)
			var delivered, premium, premiumArrived uint64
			deliver := func(p flowq.Packet, ok bool) {
				if !ok {
					return
				}
				delivered++
				if uint64(p.Flow) <= capacity {
					premium++
				}
			}
			for i := 0; i < arrivals; i++ {
				now++
				id := flowq.FlowID(rng.Intn(flows) + 1)
				if uint64(id) <= capacity {
					premiumArrived++
				}
				s.OnArrival(now, flowq.Packet{Flow: id, Size: 1500, Arrival: now})
				// Service at half the arrival rate: flows stay backlogged,
				// so the list is continuously contended at load > 1.
				if i%2 == 1 {
					now++
					deliver(s.NextPacket(now))
				}
			}
			for {
				now++
				p, ok := s.NextPacket(now)
				if !ok {
					break
				}
				deliver(p, ok)
			}

			fs := s.FaultStats()
			if got := delivered + fs.DroppedPackets; got != arrivals {
				panic(fmt.Sprintf("experiments: overload conservation violated for %v load %.1f: %d delivered + %d dropped != %d arrived (backlog %d, last fault %v)",
					pol, load, delivered, fs.DroppedPackets, arrivals, s.Backlog(), s.LastFault()))
			}
			premiumPct := "n/a"
			if premiumArrived > 0 {
				premiumPct = fmt.Sprintf("%.1f%%", 100*float64(premium)/float64(premiumArrived))
			}
			t.Rows = append(t.Rows, []string{
				pol.String(), fmt.Sprintf("%d", flows), fmt.Sprintf("%.1fx", load),
				fmt.Sprintf("%d", delivered),
				fmt.Sprintf("%.1f%%", 100*float64(delivered)/float64(arrivals)),
				premiumPct,
				fmt.Sprintf("%d", fs.DroppedPackets),
				fmt.Sprintf("%d", fs.AdmissionEvictions),
			})
		}
	}
	t.Notes = []string{
		fmt.Sprintf("premium goodput = delivery fraction for the %d best-priority flows (the set push-out should protect)", capacity),
		"every run conserves packets exactly: arrived = delivered + declared drops (checked)",
		"a full list never panics: the Admission policy decides, and every refused backlog is a declared drop",
	}
	return t
}
