package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the example's own checks pass — every VM within 1 % of its
// rate limit and every flow within 2 % of an equal share of it — and it
// reports them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "two-level hierarchy: 4 VMs x 5 flows on 40 Gbps") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
