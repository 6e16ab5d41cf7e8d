package main

import (
	"testing"
	"time"

	"pieo"
	"pieo/internal/backend"
	"pieo/internal/hier"
	"pieo/internal/netsim"
)

// capabilities are the optional interfaces production code discovers by
// type assertion. A wrapper that implements one its inner value lacks —
// or lacks one it has — silently changes which path sched, hier, netsim
// and backend's helpers take under tracing.
var capabilities = []struct {
	name string
	has  func(any) bool
}{
	{"Peeker", func(v any) bool { _, ok := v.(backend.Peeker); return ok }},
	{"RankUpdater", func(v any) bool { _, ok := v.(backend.RankUpdater); return ok }},
	{"RankRanger", func(v any) bool { _, ok := v.(backend.RankRanger); return ok }},
	{"EligIndexed", func(v any) bool { _, ok := v.(backend.EligIndexed); return ok }},
	{"InvariantChecker", func(v any) bool { _, ok := v.(backend.InvariantChecker); return ok }},
	{"HardwareModeled", func(v any) bool { _, ok := v.(backend.HardwareModeled); return ok }},
	{"Combining", func(v any) bool { _, ok := v.(backend.Combining); return ok }},
	{"Evictor", func(v any) bool { _, ok := v.(backend.Evictor); return ok }},
	{"Health", func(v any) bool { _, ok := v.(backend.Health); return ok }},
	{"Batcher", func(v any) bool { _, ok := v.(backend.Batcher); return ok }},
}

func TestListWrappersKeepExactCapabilities(t *testing.T) {
	tr := newTracer("core", "sched", spanCost{})
	coreList, err := pieo.NewBackend("core", 64)
	if err != nil {
		t.Fatal(err)
	}
	eng := pieo.NewShardedList(64, 2)
	for _, c := range []struct {
		name           string
		inner, wrapper any
	}{
		{"core", coreList, wrapCore(coreList, tr)},
		{"sharded", eng, wrapShard(eng, tr)},
	} {
		if _, ok := c.wrapper.(pieo.Backend); !ok {
			t.Fatalf("%s wrapper is not a Backend", c.name)
		}
		for _, capab := range capabilities {
			if in, out := capab.has(c.inner), capab.has(c.wrapper); in != out {
				t.Errorf("%s: inner implements %s = %v, wrapper = %v", c.name, capab.name, in, out)
			}
		}
	}
}

func TestSchedWrapperForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer("core", "sched", spanCost{})
	h := hier.NewPartitioned(40, pieo.RoundRobinPolicy())
	h.Root().AddFlow(0)
	h.Build()
	for name, in := range map[string]simScheduler{
		"sched": pieo.NewScheduler(pieo.FIFO(), 8, 40),
		"hier":  h,
	} {
		var w netsim.Scheduler = &tracedSched{in: in, t: tr}
		if _, ok := w.(netsim.WakeHinter); !ok {
			t.Errorf("%s wrapper hides WakeHinter", name)
		}
		if _, ok := w.(netsim.BackendReporter); !ok {
			t.Errorf("%s wrapper hides BackendReporter", name)
		}
		if _, ok := w.(netsim.FaultReporter); !ok {
			t.Errorf("%s wrapper hides FaultReporter", name)
		}
	}
}

// The wrapped list must answer exactly as the bare one and count one
// span per timed call.
func TestTracedListForwardsAndCounts(t *testing.T) {
	tr := newTracer("core", "sched", spanCost{})
	bare, _ := pieo.NewBackend("core", 16)
	inner, _ := pieo.NewBackend("core", 16)
	w := wrapCore(inner, tr)
	tr.beginRun()
	for i, b := range []pieo.Backend{bare, w} {
		for id := uint32(0); id < 8; id++ {
			if err := b.Enqueue(pieo.Entry{ID: id, Rank: uint64(100 - id), SendTime: pieo.Time(id)}); err != nil {
				t.Fatalf("backend %d: enqueue: %v", i, err)
			}
		}
	}
	for now := pieo.Time(0); now < 10; now++ {
		want, wantOK := bare.Dequeue(now)
		got, gotOK := w.Dequeue(now)
		if want != got || wantOK != gotOK {
			t.Fatalf("Dequeue(%d): wrapper %v,%v bare %v,%v", now, got, gotOK, want, wantOK)
		}
	}
	if w.Len() != bare.Len() || w.Contains(3) != bare.Contains(3) {
		t.Fatal("Len/Contains differ through the wrapper")
	}
	tr.endRun()
	if got := tr.final[kEnqueue].calls; got != 8 {
		t.Errorf("enqueue spans = %d, want 8", got)
	}
	if a := tr.final[kDequeue]; a.calls != 10 || a.empty != 2 {
		t.Errorf("dequeue spans = %d (%d empty), want 10 (2 empty)", a.calls, a.empty)
	}
	if tr.eligViol != 0 {
		t.Errorf("eligibility violations = %d", tr.eligViol)
	}
}

// With a zero span cost the self times must add up to the root span
// exactly: every nanosecond belongs to one span.
func TestSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer("core", "sched", spanCost{})
	tr.beginRun()
	for i := 0; i < 100; i++ {
		tr.push(kSimRun)
		tr.push(kNextPacket)
		tr.push(kDequeue)
		time.Sleep(time.Microsecond)
		tr.pop(false)
		tr.pop(false)
		tr.push(kCallback)
		tr.pop(false)
		tr.pop(false)
	}
	tr.endRun()
	var sum int64
	for k := range tr.final {
		sum += tr.final[k].self
	}
	if root := tr.final[kDriver].total; sum != root {
		t.Errorf("self times sum to %d ns, root span lasted %d ns", sum, root)
	}
	if tr.finalSpans != 401 || len(tr.raw) != 401 {
		t.Errorf("%d spans, %d raw spans, want 401 each", tr.finalSpans, len(tr.raw))
	}
	if r := tr.raw[3]; r.k != kDequeue || tr.raw[r.parent].k != kNextPacket {
		t.Errorf("raw span 3 is %v under %v, want dequeue under next_packet", r.k, tr.raw[r.parent].k)
	}
}
