// Quickstart: the PIEO primitive in isolation.
//
// A PIEO list orders elements by a programmable rank and attaches an
// eligibility predicate (encoded as a send time) to each. Dequeue
// returns the smallest-ranked ELIGIBLE element — the primitive behind
// "schedule the smallest ranked eligible element", which a plain
// priority queue (PIFO) cannot express.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"slices"

	"pieo"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run walks the primitive and writes what it does to w. It fails unless
// every dequeue returns the smallest-ranked eligible flow.
func run(w io.Writer) error {
	l := pieo.NewList(16)
	var got []uint32 // flows dequeued, in order; 0 when nothing was eligible
	dequeue := func(now pieo.Time) pieo.Entry {
		e, _ := l.Dequeue(now)
		got = append(got, e.ID)
		return e
	}

	// Three flows with ranks 10 < 20 < 30. Flow 1 has the best rank but
	// is not eligible until t=1000 (think: a rate limiter deferred it).
	must(l.Enqueue(pieo.Entry{ID: 1, Rank: 10, SendTime: 1000}))
	must(l.Enqueue(pieo.Entry{ID: 2, Rank: 20, SendTime: pieo.Always}))
	must(l.Enqueue(pieo.Entry{ID: 3, Rank: 30, SendTime: 500}))

	fmt.Fprintln(w, "list (rank order):")
	for _, e := range l.Snapshot() {
		fmt.Fprintln(w, "  ", e)
	}

	// At t=0 only flow 2 is eligible: PIEO skips the better-ranked but
	// ineligible flow 1. A PIFO would be stuck behind flow 1.
	fmt.Fprintln(w, "dequeue at t=0:   ", dequeue(0), "(flow 1 not yet eligible)")

	// At t=600 flow 3 has become eligible; flow 1 still has not.
	fmt.Fprintln(w, "dequeue at t=600: ", dequeue(600))

	// Nothing is eligible now — dequeue says so instead of blocking.
	if dequeue(600).ID == 0 {
		fmt.Fprintln(w, "dequeue at t=600:  nothing eligible (flow 1 waits until t=1000)")
	}

	// At t=1000 flow 1 finally goes out.
	fmt.Fprintln(w, "dequeue at t=1000:", dequeue(1000))

	// dequeue(f): extract a specific element to update its attributes
	// asynchronously (priority aging, pause/resume, ...). Boosted, flow 7
	// goes out ahead of flow 8.
	must(l.Enqueue(pieo.Entry{ID: 7, Rank: 99, SendTime: pieo.Always}))
	must(l.Enqueue(pieo.Entry{ID: 8, Rank: 50, SendTime: pieo.Always}))
	if e, ok := l.DequeueFlow(7); ok {
		e.Rank = 1 // boost
		must(l.Enqueue(e))
		fmt.Fprintln(w, "flow 7 boosted to rank 1 via dequeue(f) + enqueue(f)")
	}
	dequeue(0)
	if want := []uint32{2, 3, 0, 1, 7}; !slices.Equal(got, want) {
		return fmt.Errorf("dequeued flows %v, want %v", got, want)
	}
	return nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
