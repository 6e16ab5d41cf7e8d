package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/flowq"
)

// tableDiff drives a flowTable and a map[FlowID]*Flow — the index the
// table replaced — through the same lookups and creations and fails on
// the first difference. Every flow is stamped with its ID when created,
// so two IDs sharing a Flow, or a Flow moving, shows as a wrong stamp.
type tableDiff struct {
	tb  testing.TB
	tab flowTable
	ref map[flowq.FlowID]*Flow
}

func newTableDiff(tb testing.TB) *tableDiff {
	return &tableDiff{tb: tb, ref: map[flowq.FlowID]*Flow{}}
}

// get is Scheduler.Flow: look id up, create it on first use.
func (d *tableDiff) get(id flowq.FlowID) {
	d.tb.Helper()
	f := d.tab.lookup(id)
	if want := d.ref[id]; f != want {
		d.tb.Fatalf("lookup(%d) = %p, want %p", id, f, want)
	}
	if f == nil {
		f = d.tab.insert(id)
		if f.ID != 0 || f.Rank != 0 || f.Queue.Len() != 0 {
			d.tb.Fatalf("insert(%d) handed out a used flow: %+v", id, *f)
		}
		f.ID, f.Rank = id, uint64(id)^0xfeed
		d.ref[id] = f
		if got := d.tab.lookup(id); got != f {
			d.tb.Fatalf("lookup(%d) = %p right after insert returned %p", id, got, f)
		}
	}
	if f.ID != id || f.Rank != uint64(id)^0xfeed {
		d.tb.Fatalf("flow %d carries the stamp of flow %d", id, f.ID)
	}
}

// audit is the full comparison: the table's structure, every reference
// key resolving to the pointer first handed out, and the creation-order
// slice holding exactly those flows.
func (d *tableDiff) audit() {
	d.tb.Helper()
	if err := checkFlowTable(&d.tab); err != nil {
		d.tb.Fatal(err)
	}
	if len(d.tab.all) != len(d.ref) {
		d.tb.Fatalf("table lists %d flows, reference holds %d", len(d.tab.all), len(d.ref))
	}
	for id, want := range d.ref {
		if got := d.tab.lookup(id); got != want {
			d.tb.Fatalf("lookup(%d) = %p, want %p", id, got, want)
		}
	}
	for i, f := range d.tab.all {
		if d.ref[f.ID] != f {
			d.tb.Fatalf("all[%d] is flow %d at %p, reference has %p", i, f.ID, f, d.ref[f.ID])
		}
	}
}

// checkFlowTable validates the table's own structure: power-of-two
// geometry, the half-full bound that keeps probes terminating, and every
// key reachable — no empty slot between a key's home and where it sits.
func checkFlowTable(t *flowTable) error {
	n := len(t.slots)
	if n == 0 {
		if len(t.all) != 0 {
			return fmt.Errorf("%d flows and no slots", len(t.all))
		}
		return nil
	}
	if n&(n-1) != 0 || n != 1<<(64-t.shift) {
		return fmt.Errorf("geometry: %d slots, shift %d", n, t.shift)
	}
	if 2*len(t.all) > n {
		return fmt.Errorf("%d flows in %d slots, over half full", len(t.all), n)
	}
	occupied := 0
	for i, s := range t.slots {
		if s.f == nil {
			continue
		}
		occupied++
		if s.f.ID != s.id {
			return fmt.Errorf("slot %d keyed %d points at flow %d", i, s.id, s.f.ID)
		}
		home := int((uint64(s.id) * flowHashMul) >> t.shift)
		for j := home; j != i; j = (j + 1) & (n - 1) {
			if t.slots[j].f == nil {
				return fmt.Errorf("id %d at slot %d is cut off from its home %d by empty slot %d", s.id, i, home, j)
			}
		}
	}
	if occupied != len(t.all) {
		return fmt.Errorf("%d slots occupied, %d flows listed", occupied, len(t.all))
	}
	return nil
}

func TestFlowTableMatchesMap(t *testing.T) {
	patterns := map[string]func(i int) flowq.FlowID{
		"dense":      func(i int) flowq.FlowID { return flowq.FlowID(i) },
		"top-down":   func(i int) flowq.FlowID { return ^flowq.FlowID(i) }, // 2^32-1, 2^32-2, ...
		"stride-2^8": func(i int) flowq.FlowID { return flowq.FlowID(i) << 8 },
		// Strides whose low bits are all zero: a hash that keeps low bits
		// puts every key in one slot.
		"stride-2^20": func(i int) flowq.FlowID { return flowq.FlowID(i) << 20 },
		"stride-2^24": func(i int) flowq.FlowID { return flowq.FlowID(i)<<24 | flowq.FlowID(i)>>8 },
		// Multiples of the 32-bit golden-ratio constant, which undo a
		// 32-bit Fibonacci hash; and of its modular inverse.
		"stride-phi32":     func(i int) flowq.FlowID { return flowq.FlowID(uint32(i) * 0x9E3779B9) },
		"stride-phi32-inv": func(i int) flowq.FlowID { return flowq.FlowID(uint32(i) * 0x144CBC89) },
		"both-ends": func(i int) flowq.FlowID {
			if i&1 == 0 {
				return flowq.FlowID(i)
			}
			return ^flowq.FlowID(i)
		},
	}
	for name, id := range patterns {
		d := newTableDiff(t)
		const flows = 3900 // (flows+100)<<20 still fits 32 bits
		for i := 0; i < flows; i++ {
			d.get(id(i))
			d.get(id(i / 2)) // an old one again
			if i&(i-1) == 0 {
				d.audit()
			}
		}
		d.audit()
		if len(d.ref) != flows {
			t.Fatalf("%s: pattern repeats: %d distinct ids of %d", name, len(d.ref), flows)
		}
		// Absent keys next to present ones stay absent.
		for i := flows; i < flows+100; i++ {
			if f := d.tab.lookup(id(i)); f != nil {
				t.Fatalf("%s: lookup of absent id %d found flow %d", name, id(i), f.ID)
			}
		}
		// A pattern that turned probing into a scan would show here.
		// Random keys at this load average 1.5 slots per lookup; the
		// worst stride above, the inverse of φ32, measures 3.5.
		probes, mask := 0, len(d.tab.slots)-1
		for i, s := range d.tab.slots {
			if s.f != nil {
				home := int((uint64(s.id) * flowHashMul) >> d.tab.shift)
				probes += (i-home)&mask + 1
			}
		}
		if mean := float64(probes) / flows; mean > 8 {
			t.Errorf("%s: mean probe length %.2f over %d flows in %d slots", name, mean, flows, len(d.tab.slots))
		}
	}
}

func TestFlowTableRandomIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := newTableDiff(t)
	var seen []flowq.FlowID
	for i := 0; i < 20000; i++ {
		id := flowq.FlowID(rng.Uint32())
		if len(seen) > 0 && rng.Intn(3) == 0 {
			id = seen[rng.Intn(len(seen))]
		}
		seen = append(seen, id)
		d.get(id)
	}
	d.audit()
}

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
// within a few dozen operations; the table is audited against the
// reference map after every one.
func FuzzSchedFlowTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 3, 255, 3, 254, 2, 7})
	f.Add([]byte("\x00\x00\x01\x00\x02\x00\x03\x00\x00\x01\x01\x01\x02\x01\x03\x01"))
	f.Add([]byte{7, 255, 7, 254, 7, 253, 4, 0, 4, 1, 4, 2, 5, 9, 6, 9, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newTableDiff(t)
		for ; len(data) >= 2; data = data[2:] {
			id := flowq.FlowID(data[1]) << (8 * (data[0] & 3))
			if data[0]&4 != 0 {
				id = ^id // the same spread, counted down from 2^32-1
			}
			if data[0]&8 != 0 {
				// Lookup only: absent stays absent, present stays put.
				if got, want := d.tab.lookup(id), d.ref[id]; got != want {
					t.Fatalf("lookup(%d) = %p, want %p", id, got, want)
				}
			} else {
				d.get(id)
			}
			d.audit()
		}
	})
}
