package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the example's own checks pass — each dequeue returns the
// smallest-ranked eligible flow and the boosted flow goes out first —
// and it reports them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "flow 7 boosted to rank 1 via dequeue(f) + enqueue(f)") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
