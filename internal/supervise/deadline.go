package supervise

import (
	"pieo/internal/clock"

	"pieo/internal/core"
)

// Deadline returns the expiry instant for a budget starting now on clk,
// saturating at clock.Never (a Never deadline never expires, matching
// the predicate sentinel convention).
func Deadline(clk clock.Source, budget clock.Time) clock.Time {
	return clk.Now().Add(budget)
}

// Expired reports whether deadline has passed on clk. A zero deadline
// means "no deadline" and never expires.
func Expired(clk clock.Source, deadline clock.Time) bool {
	if deadline == 0 || deadline == clock.Never {
		return false
	}
	return clk.Now() > deadline
}

// WithDeadline runs step repeatedly until it reports done, the deadline
// derived from budget expires (returning core.ErrDeadline), or step
// returns its own error. It is the bounded-blocking-loop shape the
// scheduler's dequeue path uses inline; helpers and tests use this
// wrapper directly.
func WithDeadline(clk clock.Source, budget clock.Time, step func() (done bool, err error)) error {
	deadline := Deadline(clk, budget)
	for {
		done, err := step()
		if err != nil || done {
			return err
		}
		if Expired(clk, deadline) {
			return core.ErrDeadline
		}
	}
}
