package pieo

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryProgramConstructor sanity-checks the whole §4 catalogue
// through the public facade: each program schedules a two-flow backlog
// without panicking and conserves packets.
func TestEveryProgramConstructor(t *testing.T) {
	progs := map[string]*Program{
		"fifo": FIFO(), "drr": DRR(), "wfq": WFQ(), "wf2q": WF2Q(),
		"tb": TokenBucket(), "rcsp": RCSP(), "sp": StrictPriority(),
		"sjf": SJF(), "srtf": SRTF(), "edf": EDF(), "lstf": LSTF(),
		"pacer": Pacer(),
	}
	for name, prog := range progs {
		s := NewScheduler(prog, 8, 40)
		for id := FlowID(1); id <= 2; id++ {
			f := s.Flow(id)
			f.Priority = uint64(id)
			f.RateGbps = 100 // effectively unshapped for tb
			f.Burst = 1e6
			f.Tokens = f.Burst
		}
		for i := 0; i < 4; i++ {
			s.OnArrival(0, Packet{Flow: FlowID(i%2 + 1), Size: 1500, Seq: uint64(i), Deadline: Time(10000 + i)})
		}
		got := 0
		for i := 0; i < 4; i++ {
			if _, ok := s.NextPacket(Time(1) << 40); ok {
				got++
			}
		}
		if got != 4 {
			t.Errorf("%s: transmitted %d of 4", name, got)
		}
	}
}

// TestEveryPolicyConstructor does the same for the hierarchy policies.
func TestEveryPolicyConstructor(t *testing.T) {
	policies := map[string]func() *Policy{
		"rr": RoundRobinPolicy, "sp": StrictPriorityPolicy,
		"wfq": WFQPolicy, "wf2q": WF2QPolicy, "tb": TokenBucketPolicy,
	}
	for name, mk := range policies {
		h := NewHierarchy(40, mk())
		vm := h.Root().AddNode("vm", RoundRobinPolicy())
		vm.AddFlow(1)
		vm.AddFlow(2)
		h.Build()
		self := vm.Self()
		self.RateGbps = 100
		self.Burst = 1e6
		self.Tokens = self.Burst
		for i := 0; i < 4; i++ {
			h.OnArrival(0, Packet{Flow: FlowID(i%2 + 1), Size: 1500, Seq: uint64(i)})
		}
		got := 0
		for i := 0; i < 4; i++ {
			if _, ok := h.NextPacket(Time(1) << 40); ok {
				got++
			}
		}
		if got != 4 {
			t.Errorf("%s: transmitted %d of 4", name, got)
		}
	}
}

func TestFacadeDictionary(t *testing.T) {
	d := NewDict[string](8)
	d.Insert(5, "five")
	d.Insert(9, "nine")
	if k, v, ok := d.Ceiling(6); !ok || k != 9 || v != "nine" {
		t.Fatalf("Ceiling = %d,%q,%v", k, v, ok)
	}
	if _, ok := d.Search(5); !ok {
		t.Fatal("Search(5) failed")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// TestFacadeHardwareModelSweep: a list built with an explicit sublist
// size, the sublist-size ablation's knob, keeps it.
func TestFacadeHardwareModelSweep(t *testing.T) {
	l := NewListWithSublistSize(64, 4)
	if l.SublistSize() != 4 {
		t.Fatalf("SublistSize = %d", l.SublistSize())
	}
}

func TestFacadeAsyncHelpers(t *testing.T) {
	s := NewScheduler(StrictPriority(), 8, 40)
	s.Flow(1).Priority = 5
	s.OnArrival(0, Packet{Flow: 1, Size: 100})
	PauseFlow(s, 0, 1)
	if _, ok := s.NextPacket(0); ok {
		t.Fatal("paused flow scheduled")
	}
	ResumeFlow(s, 0, 1)
	if _, ok := s.NextPacket(0); !ok {
		t.Fatal("resumed flow not scheduled")
	}
	s.OnArrival(1, Packet{Flow: 1, Size: 100})
	s.Flow(1).LastScheduled = 0
	if n := AgeStarvedFlows(s, 1_000_000, 100, 0, []FlowID{1}); n != 1 {
		t.Fatalf("AgeStarvedFlows boosted %d, want 1", n)
	}
}

// TestReadmeNamesRegisteredBackends pins README's "Choosing a backend"
// table to the registry: one row per registered backend name, and no row
// for a name that does not register.
func TestReadmeNamesRegisteredBackends(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	i := strings.Index(readme, "### Choosing a backend")
	if i < 0 {
		t.Fatal(`README.md has no "### Choosing a backend" section`)
	}
	section := readme[i:]
	if j := strings.Index(section, "\n\n`"); j >= 0 {
		section = section[:j]
	}
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)`").FindAllStringSubmatch(section, -1) {
		rows = append(rows, m[1])
	}
	slices.Sort(rows)
	if names := BackendNames(); !slices.Equal(rows, names) {
		t.Fatalf("README.md's backend table lists %v, the registry holds %v", rows, names)
	}
}
