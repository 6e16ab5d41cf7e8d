package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the example's own checks pass — every flow within 1 % of its
// 4:2:1:1 weighted share and the link kept busy — and it reports them.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "link utilization: 100.0% (work-conserving)") {
		t.Fatalf("unexpected report:\n%s", out.String())
	}
}
