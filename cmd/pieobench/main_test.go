package main

import (
	"bytes"
	"strings"
	"testing"
)

// Smoke: the command runs one experiment end to end — the cut-down
// pacing sweep CI also runs — and prints its table: one row per default
// backend, every wake exact.
func TestRunPacingSmoke(t *testing.T) {
	t.Setenv("PIEO_PACING_ROUNDS", "50")
	t.Setenv("PIEO_PACING_FLOWS", "10000")
	var out bytes.Buffer
	if err := run([]string{"-experiment", "pacing", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "core,") || strings.HasPrefix(line, "sharded,") {
			rows = append(rows, line)
			if f := strings.Split(line, ","); len(f) != 8 || f[2] != "summaries" || f[6] != "100.0" {
				t.Errorf("row %q: want 8 fields, index summaries, 100.0%% exact", line)
			}
		}
	}
	if len(rows) != 2 {
		t.Fatalf("got %d backend rows, want core and sharded at 10K:\n%s", len(rows), out.String())
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pacing\n") {
		t.Fatalf("-list misses the pacing experiment:\n%s", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"pacing"},
		{"-experiment", "nope"},
		{"-experiment", "pacing", "-format", "nope"},
		{"-experiment", "pacing", "-backend", "nope"},
		{"-experiment", "pacing", "-procs", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}
