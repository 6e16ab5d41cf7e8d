package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the walk-through runs end to end (run fails on any invariant
// violation), extracts the elements the Fig 6/7 example promises, and
// charges four cycles per primitive operation.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"returned: [5, 12, 2] (ok=true)   cost: cycles +4",
		"returned: [9, 62, 50] (ok=true)   cost: cycles +4",
		"totals: 16 enqueues, 1 dequeues, 1 flow-dequeues, 72 cycles",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output misses %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsArguments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fig6"}, &out); err == nil {
		t.Fatal("stray argument accepted")
	}
}
