package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// TestPacingScaleSmoke runs a cut-down Carousel sweep (few rounds, 10K
// ceiling) and checks the structural claims the full experiment records:
// every wake hint is exact on every path, the one-path backends (core,
// sharded) report one row, and cffs reports its scan/wheel pair with a
// speedup that parses and stays positive. Perf thresholds are NOT
// asserted here — CI timing is noise; EXPERIMENTS.md holds the
// calibrated numbers.
func TestPacingScaleSmoke(t *testing.T) {
	t.Setenv("PIEO_PACING_ROUNDS", "300")
	t.Setenv("PIEO_PACING_FLOWS", "10000")
	prev := Backends()
	if err := SetBackends([]string{"core", "sharded", "cffs"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := SetBackends(prev); err != nil {
			t.Error(err)
		}
	})
	tab := PacingScale()
	var index []string
	for _, row := range tab.Rows {
		index = append(index, row[0]+"/"+row[2])
		if row[6] != "100.0" {
			t.Fatalf("backend %s flows %s index %s: exact%% = %s, want 100.0", row[0], row[1], row[2], row[6])
		}
		if row[2] == "summaries" {
			if row[7] != "-" {
				t.Fatalf("backend %s has one path but reports speedup %q", row[0], row[7])
			}
			continue
		}
		sp, err := strconv.ParseFloat(row[7], 64)
		if err != nil || sp <= 0 {
			t.Fatalf("backend %s flows %s: bad speedup %q (%v)", row[0], row[1], row[7], err)
		}
	}
	if got, want := strings.Join(index, " "), "core/summaries sharded/summaries cffs/scan cffs/wheel"; got != want {
		t.Fatalf("rows = %s, want %s", got, want)
	}
}

// TestPacingScaleExactWakes drives one configuration directly and
// asserts the measurement dispatches packets and reports every wake as
// exact — the "packets transmitted at precise times" requirement the
// eligibility index exists for.
func TestPacingScaleExactWakes(t *testing.T) {
	t.Setenv("PIEO_PACING_ROUNDS", "500")
	for _, name := range []string{"core", "sharded"} {
		res := pacingScaleMeasure(name, 5000, true)
		if res.dispatch == 0 {
			t.Fatalf("%s: no packets dispatched", name)
		}
		if res.exactPct != 100 {
			t.Fatalf("%s: exact%% = %v, want 100", name, res.exactPct)
		}
	}
}
