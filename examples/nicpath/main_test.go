package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the example's own checks pass — nothing dropped, twelve flows
// classified, every tenant within 2 % of its weighted share — and it
// reports them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "decoded+classified 12 flows across 3 tenants") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
