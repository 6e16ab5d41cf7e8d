package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the example's own checks pass — every tenant within 1 % of its
// limit and the link idle beyond the limits' sum — and it reports them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "link: 40 Gbps, 3 tenants, 20 ms simulated") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
