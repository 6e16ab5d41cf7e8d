package faultinject

import (
	"fmt"
	"sort"

	"pieo/internal/clock"
)

// Window is one scheduled fault period: Plan is live while the storm's
// clock reads From ≤ now < To. Outside every window the storm produces
// no faults at all — which is what lets a chaos test assert recovery
// CONVERGENCE: after the last window closes, every remaining fault
// response (breaker backoff, rebuild, probation) must complete within
// the supervision layer's own bounded horizon, with no Recover() crutch.
type Window struct {
	From, To clock.Time
	Plan     Plan
}

// Storm is a sequence of scheduled fault windows evaluated against an
// injectable clock — the chaos driver advances the same clock.Source the
// engine's circuit breakers schedule against, so injection instants and
// recovery instants land on one timeline and MTTR is measurable from the
// fault log. Safe for concurrent use.
type Storm struct {
	clk     clock.Source
	windows []Window
	injs    []*Injector
}

// NewStorm builds a storm over clk from the given windows. Windows may
// overlap; the earliest-starting live window wins. Each window gets its
// own Injector so per-window fault counters stay attributable.
func NewStorm(clk clock.Source, windows []Window) *Storm {
	if clk == nil {
		panic("faultinject: storm clock must not be nil")
	}
	ws := make([]Window, len(windows))
	copy(ws, windows)
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].From < ws[b].From })
	s := &Storm{clk: clk, windows: ws, injs: make([]*Injector, len(ws))}
	for i, w := range ws {
		if w.To <= w.From {
			panic(fmt.Sprintf("faultinject: storm window %d empty: [%v, %v)", i, w.From, w.To))
		}
		s.injs[i] = NewInjector(w.Plan)
	}
	return s
}

// active returns the injector of the live window at the storm clock's
// current instant, nil when no window is live.
func (s *Storm) active() *Injector {
	now := s.clk.Now()
	for i, w := range s.windows {
		if now >= w.From && now < w.To {
			return s.injs[i]
		}
	}
	return nil
}

// Active reports whether any fault window is live right now.
func (s *Storm) Active() bool { return s.active() != nil }

// End returns the instant the last window closes: past it the storm
// produces no further faults, and a convergence assertion's clock starts.
func (s *Storm) End() clock.Time {
	var end clock.Time
	for _, w := range s.windows {
		if w.To > end {
			end = w.To
		}
	}
	return end
}

// Stats aggregates the fault counters across every window.
func (s *Storm) Stats() Stats {
	var total Stats
	for _, inj := range s.injs {
		st := inj.Stats()
		total.Injected += st.Injected
		total.Panics += st.Panics
		total.Squeezes += st.Squeezes
		total.Stalls += st.Stalls
		total.Ops += st.Ops
	}
	return total
}

// WindowStats returns the fault counters of window i, for per-window
// attribution in experiment reports.
func (s *Storm) WindowStats(i int) Stats { return s.injs[i].Stats() }

// Disarm stops fault production in every window (counters survive).
func (s *Storm) Disarm() {
	for _, inj := range s.injs {
		inj.Disarm()
	}
}

// ShardHook adapts the storm to shard.Engine.SetFaultHook: inside a live
// window the window's schedule applies; outside, the hook is a no-op.
func (s *Storm) ShardHook() func(shard int, op string) {
	return func(shard int, op string) {
		if inj := s.active(); inj != nil {
			inj.step(fmt.Sprintf("shard%d/%s", shard, op))
		}
	}
}
