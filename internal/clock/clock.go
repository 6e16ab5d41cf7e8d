// Package clock provides the time sources used by PIEO schedulers.
//
// The PIEO primitive evaluates eligibility predicates of the form
// (t_current >= t_eligible) where t may be "any monotonic increasing
// function of time" (paper §3.1). This package supplies the two families
// the paper's algorithms use:
//
//   - a simulated wall clock measured in nanoseconds, advanced by the
//     discrete-event simulator (Token Bucket, RCSP, pacing), and
//   - a virtual clock in byte-times, advanced by the fair-queueing
//     algorithms themselves (WFQ, WF²Q+).
//
// Both are deliberately plain values rather than goroutine-backed tickers:
// scheduling experiments must be deterministic and reproducible, so time
// only moves when the simulation moves it.
package clock

import (
	"fmt"
)

// Time is an opaque monotonic tick. Algorithms choose its unit: the wall
// clock uses nanoseconds, virtual time uses scaled byte-times.
type Time uint64

// Never is a Time greater than every reachable tick. A send_time of Never
// encodes an eligibility predicate that is always false (paper §5.2).
const Never = Time(^uint64(0))

// Always is the zero Time. A send_time of Always encodes an eligibility
// predicate that is always true (paper §5.2).
const Always = Time(0)

// Add returns t + d, saturating at Never instead of wrapping: Never is
// absorbing (Never.Add(d) == Never) and the sum is monotone in both
// arguments.
func (t Time) Add(d Time) Time {
	if s := t + d; s >= t {
		return s
	}
	return Never
}

// After returns the instant d ticks after t for a delay computed in
// floating point — a deficit divided by a rate. A delay that is not a
// finite non-negative tick count (NaN, ±Inf, negative, 2^64 or more: an
// unconfigured or vanishing rate) has no instant, and the answer is
// Never; float-to-integer conversion of such values is
// implementation-defined and must not be left to the platform.
func After(t Time, d float64) Time {
	if !(d >= 0 && d < 1<<64) {
		return Never
	}
	return t.Add(Time(d))
}

// String formats t, special-casing the two predicate sentinels.
func (t Time) String() string {
	switch t {
	case Never:
		return "never"
	case Always:
		return "0"
	default:
		return fmt.Sprintf("%d", uint64(t))
	}
}

// Wall is a simulated wall clock in nanoseconds. The zero value is a clock
// at t=0, ready to use. It is advanced explicitly by the simulator.
type Wall struct {
	now Time
}

// Now returns the current simulated time.
func (w *Wall) Now() Time { return w.now }

// Advance moves the clock forward by d ticks.
func (w *Wall) Advance(d Time) { w.now += d }

// AdvanceTo moves the clock to t, clamping monotonically: a t in the
// past is ignored rather than rewinding the clock. The simulator event
// loop delivers events in order, so a backwards call only arises when
// independent wake sources (pacing hints, alarms) race to re-arm the
// same instant — a no-op keeps the clock monotonic, where the old panic
// turned a benign stale hint into a crash.
func (w *Wall) AdvanceTo(t Time) {
	if t < w.now {
		return
	}
	w.now = t
}

// Virtual is the WFQ/WF²Q+ system virtual time V(t) (paper Fig 2(a)).
// It advances by the normalized service delivered, and jumps forward to
// the minimum start time among backlogged flows so that newly busy periods
// do not inherit stale virtual time. The zero value starts at V=0.
type Virtual struct {
	now Time
}

// Now returns the current virtual time.
func (v *Virtual) Now() Time { return v.now }

// OnTransmit advances virtual time by the transmission length x of the
// packet currently leaving the link, then applies the WF²Q+ floor:
// V(t+x) = max(V(t)+x, minStart), where minStart is the smallest virtual
// start time among backlogged flows (clock.Never when none are backlogged,
// in which case only the +x advance applies).
func (v *Virtual) OnTransmit(x Time, minStart Time) {
	v.now += x
	if minStart != Never && minStart > v.now {
		v.now = minStart
	}
}

// Set forces virtual time to t if t is ahead of the current value. Used
// when a busy period begins after an idle gap.
func (v *Virtual) Set(t Time) {
	if t > v.now {
		v.now = t
	}
}
