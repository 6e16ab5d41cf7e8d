package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// sent digs the transmitted-packet count out of a report.
func sent(t *testing.T, report string) int {
	t.Helper()
	i := strings.Index(report, "packets sent: ")
	if i < 0 {
		t.Fatalf("no packet count in the report:\n%s", report)
	}
	var n int
	if _, err := fmt.Sscanf(report[i:], "packets sent: %d", &n); err != nil {
		t.Fatalf("packet count: %v in:\n%s", err, report)
	}
	return n
}

// Smoke: the command runs end to end for a few simulated milliseconds —
// a work-conserving configuration and a shaped one that idles on wake
// events, closed- and open-loop — sends packets, and counts no fault
// (run turns any into an error).
func TestRunSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "wf2q", "-flows", "4", "-weights", "4,2,1,1", "-duration", "2"},
		{"-algo", "tokenbucket", "-flows", "4", "-rate", "2.5", "-duration", "2"},
		{"-algo", "drr", "-flows", "8", "-workload", "poisson", "-load", "0.8", "-duration", "1", "-backend", "ref"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if n := sent(t, out.String()); n == 0 {
			t.Errorf("%v: sent nothing:\n%s", args, out.String())
		}
	}
}

// WF²Q+ with weights 4:2:1:1 on a backlogged link: the report's first
// flow line carries half the link.
func TestRunReportsShares(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algo", "wf2q", "-flows", "4", "-weights", "4,2,1,1", "-duration", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	var bytes0 int
	var gbps float64
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "0 ") {
			if _, err := fmt.Sscanf(line, "0 %d %f", &bytes0, &gbps); err != nil {
				t.Fatalf("flow line %q: %v", line, err)
			}
		}
	}
	if gbps < 19.5 || gbps > 20.5 {
		t.Fatalf("flow 0 at %.3f Gbps, want ~20 of 40:\n%s", gbps, out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "nope"},
		{"-backend", "nope"},
		{"-weights", "1,0"},
		{"-workload", "nope"},
		{"bogus"},
		{"-flows", "-1"},
		{"-link", "0"},
		{"-link", "Inf"},
		{"-duration", "-1"},
		{"-duration", "NaN"},
		{"-mtu", "0"},
		{"-workload", "poisson", "-load", "0"},
		{"-algo", "tokenbucket", "-rate", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
