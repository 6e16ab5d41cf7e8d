package sched

import (
	"testing"

	"pieo/internal/flowq"
	"pieo/internal/idtab"
)

// The scheduler over the table: flows keep their address and settings
// while thousands more are created around them, whatever their IDs.
func TestSchedulerFlowsSparseIDs(t *testing.T) {
	s := New(&Program{Name: "fifo"}, 16, 40)
	ids := []flowq.FlowID{0, 1, 1 << 31, 1<<32 - 1, 1<<32 - 2, 0x9E3779B9, 7 << 24}
	first := map[flowq.FlowID]*Flow{}
	for i, id := range ids {
		first[id] = s.Flow(id)
		s.SetWeight(id, uint64(i+2))
	}
	for i := 0; i < 3000; i++ {
		s.Flow(flowq.FlowID(i*65537 + 12345))
	}
	var sum uint64 = 3000
	for i, id := range ids {
		f := s.Flow(id)
		if f != first[id] || f.ID != id || f.Weight != uint64(i+2) || f.Quantum != 1500 {
			t.Fatalf("flow %d: %p %+v, first handed out at %p with weight %d", id, f, *f, first[id], i+2)
		}
		sum += f.Weight
	}
	if s.Flows() != len(ids)+3000 || s.SumWeights != sum {
		t.Fatalf("Flows = %d, SumWeights = %d; want %d, %d", s.Flows(), s.SumWeights, len(ids)+3000, sum)
	}
	// Backlog walks every flow.
	for _, id := range ids {
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
	}
	if got := s.Backlog(); got != 2*len(ids) {
		t.Fatalf("Backlog = %d, want %d", got, 2*len(ids))
	}
	for i := 0; i < 2*len(ids); i++ {
		if _, ok := s.NextPacket(0); !ok {
			t.Fatalf("NextPacket %d: nothing to send with backlog %d", i, s.Backlog())
		}
	}
	if got := s.Backlog(); got != 0 {
		t.Fatalf("Backlog = %d after draining", got)
	}
}

// FuzzSchedFlowTable interprets the input as a stream of flow lookups
// over a small key space spread by shifts of 0, 8, 16 and 24 bits, so
// that collisions, wrapping clusters, growth and slab turnover all occur
// within a few dozen operations. Every flow is stamped when first handed
// out, so two IDs sharing a Flow, or a Flow moving, shows as a wrong
// stamp; after every operation the flow table's structure holds and
// every key resolves to the pointer first handed out.
func FuzzSchedFlowTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 3, 255, 3, 254, 2, 7})
	f.Add([]byte("\x00\x00\x01\x00\x02\x00\x03\x00\x00\x01\x01\x01\x02\x01\x03\x01"))
	f.Add([]byte{7, 255, 7, 254, 7, 253, 4, 0, 4, 1, 4, 2, 5, 9, 6, 9, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(&Program{Name: "fifo"}, 16, 40)
		ref := map[flowq.FlowID]*Flow{}
		for ; len(data) >= 2; data = data[2:] {
			id := flowq.FlowID(data[1]) << (8 * (data[0] & 3))
			if data[0]&4 != 0 {
				id = ^id // the same spread, counted down from 2^32-1
			}
			if data[0]&8 != 0 {
				// Lookup only: absent stays absent, present stays put.
				if got, _ := s.flows.Get(idtab.ID(id)); got != ref[id] {
					t.Fatalf("lookup(%d) = %p, want %p", id, got, ref[id])
				}
			} else {
				f := s.Flow(id)
				if want, ok := ref[id]; ok && f != want {
					t.Fatalf("Flow(%d) = %p, first handed out at %p", id, f, want)
				} else if !ok {
					if f.ID != id || f.Rank != 0 || f.Queue.Len() != 0 {
						t.Fatalf("Flow(%d) handed out a used flow: %+v", id, *f)
					}
					f.Rank = uint64(id) ^ 0xfeed
					ref[id] = f
				}
				if f.ID != id || f.Rank != uint64(id)^0xfeed {
					t.Fatalf("flow %d carries the stamp of flow %d", id, f.ID)
				}
			}
			if err := s.flows.Check(); err != nil {
				t.Fatal(err)
			}
			if s.Flows() != len(ref) || s.flows.Len() != len(ref) {
				t.Fatalf("Flows = %d, table holds %d, reference holds %d", s.Flows(), s.flows.Len(), len(ref))
			}
			for id, want := range ref {
				if got, _ := s.flows.Get(idtab.ID(id)); got != want {
					t.Fatalf("lookup(%d) = %p, want %p", id, got, want)
				}
			}
			for i, f := range s.all {
				if ref[f.ID] != f {
					t.Fatalf("all[%d] is flow %d at %p, reference has %p", i, f.ID, f, ref[f.ID])
				}
			}
		}
	})
}
