package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the example's own checks pass — flow 3 starves without aging
// and is served with it — and it reports them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "rescued flow 3") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
