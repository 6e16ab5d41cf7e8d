// Command pieotrace prints worked examples of the PIEO datapath in the
// style of the paper's Fig 6 (enqueue) and Fig 7 (dequeue): a 16-element
// ordered list split into sublists of 4, showing the Ordered-Sublist-
// Array and both sublist orderings before and after each operation,
// including the Invariant-1 spill/refill traffic.
//
// Run: go run ./cmd/pieotrace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pieo/internal/core"
)

// dump prints the list's sublists and fails on an invariant violation.
func dump(w io.Writer, l *core.List, label string) error {
	fmt.Fprintf(w, "-- %s (len=%d) --\n", label, l.Len())
	for _, v := range l.DumpSublists() {
		fmt.Fprintln(w, "  ", v)
	}
	if err := l.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: invariant violation: %w", label, err)
	}
	fmt.Fprintln(w)
	return nil
}

func opDelta(l *core.List, prev core.Stats) string {
	s := l.Stats()
	return fmt.Sprintf("cycles +%d, sublist reads +%d, writes +%d",
		s.Cycles-prev.Cycles, s.SublistReads-prev.SublistReads, s.SublistWrites-prev.SublistWrites)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) { // -h: the flag set has printed the usage
			fmt.Fprintln(os.Stderr, "pieotrace:", err)
		}
		os.Exit(1)
	}
}

// run is the whole command: it takes no flags and writes the
// walk-through to w.
func run(args []string, w io.Writer) error {
	fl := flag.NewFlagSet("pieotrace", flag.ContinueOnError)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	l := core.New(16) // sublists of 4, like Fig 6/7

	fmt.Fprintln(w, "=== PIEO ordered list walk-through (16 elements, sublists of 4) ===")
	fmt.Fprintln(w, "Each element is [flow_id, rank, send_time]; a dequeue at time t")
	fmt.Fprintln(w, "extracts the smallest-ranked element with send_time <= t.")
	fmt.Fprintln(w)

	// Populate a state reminiscent of Fig 6/7's example.
	seed := []core.Entry{
		{ID: 7, Rank: 9, SendTime: 88},
		{ID: 2, Rank: 9, SendTime: 97},
		{ID: 0, Rank: 44, SendTime: 34},
		{ID: 15, Rank: 0, SendTime: 55},
		{ID: 1, Rank: 50, SendTime: 5},
		{ID: 9, Rank: 62, SendTime: 50},
		{ID: 11, Rank: 81, SendTime: 5},
		{ID: 4, Rank: 102, SendTime: 9},
		{ID: 8, Rank: 352, SendTime: 5},
		{ID: 6, Rank: 402, SendTime: 6},
		{ID: 3, Rank: 714, SendTime: 0},
		{ID: 10, Rank: 753, SendTime: 0},
		{ID: 12, Rank: 902, SendTime: 12},
		{ID: 14, Rank: 921, SendTime: 6},
		{ID: 13, Rank: 960, SendTime: 9},
	}
	for _, e := range seed {
		if err := l.Enqueue(e); err != nil {
			return err
		}
	}
	if err := dump(w, l, "initial state (15 elements)"); err != nil {
		return err
	}

	// --- Fig 6-style enqueue into a full sublist ---
	prev := l.Stats()
	e := core.Entry{ID: 5, Rank: 12, SendTime: 2}
	fmt.Fprintf(w, ">>> enqueue(%v)\n", e)
	fmt.Fprintln(w, "cycle 1: parallel compare (smallest_rank > 12) over the pointer array;")
	fmt.Fprintln(w, "         priority encoder selects the target sublist")
	fmt.Fprintln(w, "cycle 2: read the sublist from SRAM (and a neighbor/fresh sublist if full)")
	fmt.Fprintln(w, "cycle 3: parallel compare inside the sublist finds the insert position;")
	fmt.Fprintln(w, "         a full sublist pushes its tail out (Invariant 1)")
	fmt.Fprintln(w, "cycle 4: write back and update the pointer-array metadata")
	if err := l.Enqueue(e); err != nil {
		return err
	}
	fmt.Fprintln(w, "   cost:", opDelta(l, prev))
	fmt.Fprintln(w)
	if err := dump(w, l, "after enqueue"); err != nil {
		return err
	}

	// --- Fig 7-style dequeue at curr_time = 6 ---
	prev = l.Stats()
	fmt.Fprintln(w, ">>> dequeue() at curr_time = 6")
	fmt.Fprintln(w, "cycle 1: priority encoder finds the first sublist with")
	fmt.Fprintln(w, "         smallest_send_time <= 6 — rank order guarantees it holds")
	fmt.Fprintln(w, "         the globally smallest-ranked eligible element")
	fmt.Fprintln(w, "cycle 2: read it from SRAM (plus a donor neighbor if it was full)")
	fmt.Fprintln(w, "cycle 3: first entry with send_time <= 6 is the winner;")
	fmt.Fprintln(w, "         a refill keeps the sublist full (Invariant 1)")
	fmt.Fprintln(w, "cycle 4: write back and update metadata")
	got, ok := l.Dequeue(6)
	fmt.Fprintf(w, "   returned: %v (ok=%v)   cost: %s\n\n", got, ok, opDelta(l, prev))
	if err := dump(w, l, "after dequeue"); err != nil {
		return err
	}

	// --- dequeue(f) ---
	prev = l.Stats()
	fmt.Fprintln(w, ">>> dequeue(f=9): extract a specific flow regardless of eligibility")
	got, ok = l.DequeueFlow(9)
	fmt.Fprintf(w, "   returned: %v (ok=%v)   cost: %s\n\n", got, ok, opDelta(l, prev))
	if err := dump(w, l, "after dequeue(f)"); err != nil {
		return err
	}

	s := l.Stats()
	fmt.Fprintf(w, "totals: %d enqueues, %d dequeues, %d flow-dequeues, %d cycles, %d SRAM reads, %d writes\n",
		s.Enqueues, s.Dequeues, s.FlowDequeues, s.Cycles, s.SublistReads, s.SublistWrites)
	return nil
}
