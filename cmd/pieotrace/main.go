// Command pieotrace prints worked examples of the PIEO datapath in the
// style of the paper's Fig 6 (enqueue) and Fig 7 (dequeue): a 16-element
// ordered list split into sublists of 4, showing the Ordered-Sublist-
// Array and the Rank-Sublists before and after each operation, including
// the Invariant-1 spill/refill traffic. It walks the structural datapath
// (internal/hwsim), so each cost it prints is the machine's own count of
// cycles and SRAM port accesses.
//
// Run: go run ./cmd/pieotrace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pieo/internal/clock"
	"pieo/internal/hwsim"
)

// word renders w like the paper's figures: [flow_id, rank, send_time].
func word(w hwsim.Word) string {
	return fmt.Sprintf("[%d, %d, %s]", w.FlowID, w.Rank, clock.Time(w.SendTime))
}

// dump prints the machine's pointer array and sublist images and fails on
// an invariant violation.
func dump(w io.Writer, m *hwsim.Machine, label string) error {
	fmt.Fprintf(w, "-- %s (len=%d) --\n", label, m.Len())
	for i, v := range m.Sublists() {
		full, words := "", make([]string, len(v.Words))
		if v.Full {
			full = ", full"
		}
		for j, x := range v.Words {
			words[j] = word(x)
		}
		fmt.Fprintf(w, "   pos %d (sublist %d, num=%d%s, smallest_rank=%d, smallest_send=%s): %s\n",
			i, v.SublistID, v.Num, full, v.SmallestRank, clock.Time(v.SmallestSendTime), strings.Join(words, " "))
	}
	if err := m.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: invariant violation: %w", label, err)
	}
	fmt.Fprintln(w)
	return nil
}

func opDelta(m *hwsim.Machine, prev hwsim.Stats) string {
	s := m.Stats()
	return fmt.Sprintf("cycles +%d, sublist reads +%d, writes +%d",
		s.Cycles-prev.Cycles, s.SRAMReads-prev.SRAMReads, s.SRAMWrites-prev.SRAMWrites)
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
	m := hwsim.New(16) // sublists of 4, like Fig 6/7

	fmt.Fprintln(w, "=== PIEO ordered list walk-through (16 elements, sublists of 4) ===")
	fmt.Fprintln(w, "Each element is [flow_id, rank, send_time]; a dequeue at time t")
	fmt.Fprintln(w, "extracts the smallest-ranked element with send_time <= t.")
	fmt.Fprintln(w)

	// Populate a state reminiscent of Fig 6/7's example, each element
	// [flow_id, rank, send_time].
	seed := [][3]uint64{
		{7, 9, 88}, {2, 9, 97}, {0, 44, 34}, {15, 0, 55}, {1, 50, 5},
		{9, 62, 50}, {11, 81, 5}, {4, 102, 9}, {8, 352, 5}, {6, 402, 6},
		{3, 714, 0}, {10, 753, 0}, {12, 902, 12}, {14, 921, 6}, {13, 960, 9},
	}
	for _, e := range seed {
		if err := m.Enqueue(hwsim.Word{FlowID: uint32(e[0]), Rank: e[1], SendTime: e[2]}); err != nil {
			return err
		}
	}
	if err := dump(w, m, "initial state (15 elements)"); err != nil {
		return err
	}

	// --- Fig 6-style enqueue into a full sublist ---
	prev := m.Stats()
	e := hwsim.Word{FlowID: 5, Rank: 12, SendTime: 2}
	fmt.Fprintf(w, ">>> enqueue(%s)\n", word(e))
	fmt.Fprintln(w, "cycle 1: parallel compare (smallest_rank > 12) over the pointer array;")
	fmt.Fprintln(w, "         priority encoder selects the target sublist")
	fmt.Fprintln(w, "cycle 2: read the sublist from SRAM (and, if full, a partly full neighbor;")
	fmt.Fprintln(w, "         a fresh sublist is empty and needs no read)")
	fmt.Fprintln(w, "cycle 3: parallel compare inside the sublist finds the insert position;")
	fmt.Fprintln(w, "         a full sublist pushes its tail out (Invariant 1)")
	fmt.Fprintln(w, "cycle 4: write back and update the pointer-array metadata")
	if err := m.Enqueue(e); err != nil {
		return err
	}
	fmt.Fprintln(w, "   cost:", opDelta(m, prev))
	fmt.Fprintln(w)
	if err := dump(w, m, "after enqueue"); err != nil {
		return err
	}

	// --- Fig 7-style dequeue at curr_time = 6 ---
	prev = m.Stats()
	fmt.Fprintln(w, ">>> dequeue() at curr_time = 6")
	fmt.Fprintln(w, "cycle 1: priority encoder finds the first sublist with")
	fmt.Fprintln(w, "         smallest_send_time <= 6 — rank order guarantees it holds")
	fmt.Fprintln(w, "         the globally smallest-ranked eligible element")
	fmt.Fprintln(w, "cycle 2: read it from SRAM (plus a donor neighbor if it was full)")
	fmt.Fprintln(w, "cycle 3: first entry with send_time <= 6 is the winner;")
	fmt.Fprintln(w, "         a refill keeps the sublist full (Invariant 1)")
	fmt.Fprintln(w, "cycle 4: write back and update metadata")
	got, ok := m.Dequeue(6)
	fmt.Fprintf(w, "   returned: %s (ok=%v)   cost: %s\n\n", word(got), ok, opDelta(m, prev))
	if err := dump(w, m, "after dequeue"); err != nil {
		return err
	}

	// --- dequeue(f) ---
	prev = m.Stats()
	fmt.Fprintln(w, ">>> dequeue(f=9): extract a specific flow regardless of eligibility")
	got, ok = m.DequeueFlow(9)
	fmt.Fprintf(w, "   returned: %s (ok=%v)   cost: %s\n\n", word(got), ok, opDelta(m, prev))
	if err := dump(w, m, "after dequeue(f)"); err != nil {
		return err
	}

	s := m.Stats() // over the walk-through's enqueues, dequeue and dequeue(f)
	fmt.Fprintf(w, "totals: %d enqueues, 1 dequeues, 1 flow-dequeues, %d cycles, %d SRAM reads, %d writes\n",
		len(seed)+1, s.Cycles, s.SRAMReads, s.SRAMWrites)
	return nil
}
