package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pieo/internal/algos"
)

// tableDigests pins every table: the first 16 hex digits of the SHA-256
// of its FprintCSV output. Every table is deterministic, so a digest
// moves only when a table's content does — a change that means to move
// one re-records it here and says why. The ablation and rate digests
// were recorded when their wall-clock columns were replaced by counts,
// the hierscale digest when its partitioned/sharded rows left with the
// "sharded" registry name; the other seventeen at commit ef99068.
var tableDigests = map[string]string{
	"ablation":         "3ed1ff9164280f76",
	"approx":           "65462b238d67fc88",
	"deviation":        "4e8a66df12766401",
	"devices":          "7a74b7267b83d2d4",
	"fig10":            "2c3e6918234e7d77",
	"fig11":            "ba720b09b3df90cb",
	"fig12":            "3540f9aae4c2aa45",
	"fig2":             "5c947c605a8b6cfd",
	"fig8":             "f46bfccdb84b9acd",
	"fig9":             "16b3a7d6af2e0b02",
	"hier3":            "a52c48eb238260ea",
	"hierscale":        "373b23d22b2b4445",
	"overload":         "466310daa1dc5a29",
	"pacing-precision": "5206e7875a900846",
	"pipeline":         "73da05831d7f5d1c",
	"qdev":             "12d65ad8812dc16a",
	"rate":             "ece06137c14a7003",
	"scale":            "97ca48801ecfe296",
	"trigger":          "7f9e66de498b5083",
	"wfi":              "d585c13797b31080",
}

// TestRegistryRunsEverything runs every table once, checks its shape,
// and compares its CSV with the pinned digest. The comparison runs on
// amd64 only: elsewhere Go may fuse floating-point multiply-adds, which
// can move the last printed digit of a float cell.
func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	for _, id := range IDs() {
		tab, err := Run(id)
		if err != nil {
			t.Fatalf("Run(%q): %v", id, err)
		}
		if tab.ID != id || len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Fatalf("Run(%q) produced malformed table %+v", id, tab)
		}
		var buf bytes.Buffer
		tab.Fprint(&buf)
		if !strings.Contains(buf.String(), tab.Title) {
			t.Fatalf("Fprint(%q) missing title", id)
		}
		buf.Reset()
		tab.FprintCSV(&buf)
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:8])
		if want, ok := tableDigests[id]; !ok {
			t.Errorf("%s: no pinned digest (CSV digest %s)", id, got)
		} else if runtime.GOARCH == "amd64" && got != want {
			t.Errorf("%s: CSV digest %s, want %s; the table changed:\n%s", id, got, want, buf.String())
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("Run(nope) did not error")
	}
}

func TestFig2PIEOExactPIFODeviant(t *testing.T) {
	tab := Fig2()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	if tab.Rows[0][2] != "0" {
		t.Fatalf("PIEO max-dev = %s, want 0", tab.Rows[0][2])
	}
	for _, row := range tab.Rows[1:] {
		if row[2] == "0" {
			t.Fatalf("PIFO emulation %q shows no deviation; Fig 2 requires one", row[0])
		}
	}
}

func TestFig2IdealOrder(t *testing.T) {
	// Hand-computed WF2Q+ run of the instance (see fig2Instance doc).
	ideal := idealWF2QOrder(fig2Instance())
	want := []string{"A", "C", "E", "D", "B", "F"}
	if strings.Join(ideal, " ") != strings.Join(want, " ") {
		t.Fatalf("ideal = %v, want %v", ideal, want)
	}
}

func TestFig2StartOrderedReleasesDFirst(t *testing.T) {
	// The §2.3 narrative: D (earliest start) is scheduled before C by
	// both start-ordered emulations, although C has the smaller finish.
	tab := Fig2()
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "single PIFO by start") || strings.HasPrefix(row[0], "two PIFOs") {
			order := strings.Fields(row[1])
			if indexOf(order, "D") > indexOf(order, "C") {
				t.Fatalf("%s order %v does not schedule D before C", row[0], order)
			}
		}
	}
}

func indexOf(xs []string, s string) int {
	for i, x := range xs {
		if x == s {
			return i
		}
	}
	return -1
}

func TestFig8Shape(t *testing.T) {
	tab := Fig8()
	// First row is 1K: PIFO must read ~64%.
	if !strings.HasPrefix(tab.Rows[0][2], "64") {
		t.Fatalf("PIFO@1K = %q, want ~64%%", tab.Rows[0][2])
	}
	// 2K and beyond must be flagged infeasible for PIFO.
	if !strings.Contains(tab.Rows[1][2], "does not fit") {
		t.Fatalf("PIFO@2K = %q, want 'does not fit'", tab.Rows[1][2])
	}
	// PIEO percentages must stay under 100 and grow sublinearly.
	var prev float64
	for i, row := range tab.Rows {
		pct := parsePct(t, row[1])
		if pct >= 100 {
			t.Fatalf("PIEO row %d = %v%%, does not fit", i, pct)
		}
		if pct < prev {
			t.Fatalf("PIEO ALM%% decreased at row %d", i)
		}
		prev = pct
	}
}

func TestFig9Modest(t *testing.T) {
	tab := Fig9()
	for _, row := range tab.Rows {
		if pct := parsePct(t, row[1]); pct > 25 {
			t.Fatalf("SRAM at size %s = %v%%, want modest", row[0], pct)
		}
	}
}

func TestFig10Decreasing(t *testing.T) {
	tab := Fig10()
	prev := math.Inf(1)
	for _, row := range tab.Rows {
		mhz := parseLeadingFloat(t, row[1])
		if mhz > prev {
			t.Fatalf("PIEO clock increased at size %s", row[0])
		}
		prev = mhz
	}
	// The 30K row is the paper's ~80 MHz / 50 ns operating point.
	for _, row := range tab.Rows {
		if row[0] == "30000" {
			if mhz := parseLeadingFloat(t, row[1]); math.Abs(mhz-80) > 3 {
				t.Fatalf("PIEO@30K clock = %v, want ~80", mhz)
			}
			if ns := parseLeadingFloat(t, row[3]); math.Abs(ns-50) > 2 {
				t.Fatalf("PIEO@30K ns/op = %v, want ~50", ns)
			}
		}
	}
}

func TestScalabilityHeadline(t *testing.T) {
	tab := Scalability()
	ratioRow := tab.Rows[2]
	ratio := parseLeadingFloat(t, ratioRow[1])
	if ratio < 30 {
		t.Fatalf("scalability ratio %v, want > 30", ratio)
	}
}

func TestFig11EnforcementAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("20 ms simulations per rate point")
	}
	for _, r := range []float64{2, 16, 32} {
		got, _ := runEnforcement(r)
		if math.Abs(got-r)/r > 0.05 {
			t.Fatalf("rate limit %v enforced at %v (>5%% error)", r, got)
		}
	}
}

func TestFig12Fairness(t *testing.T) {
	if testing.Short() {
		t.Skip("20 ms simulations per rate point")
	}
	_, flows := runEnforcement(16)
	ideal := 16.0 / enfFlowsPer
	for i, f := range flows {
		if math.Abs(f-ideal)/ideal > 0.08 {
			t.Fatalf("flow %d got %v, want ~%v", i, f, ideal)
		}
	}
}

func TestDeviationLinear(t *testing.T) {
	tab := Deviation()
	last := tab.Rows[len(tab.Rows)-1]
	n, _ := strconv.Atoi(last[0])
	maxDev, _ := strconv.Atoi(last[1])
	if float64(maxDev) < 0.9*float64(n) {
		t.Fatalf("two-PIFO max deviation at N=%d is %d, want ~N (linear)", n, maxDev)
	}
	if last[4] != "0" {
		t.Fatalf("PIEO deviation = %s, want 0", last[4])
	}
}

// TestQuantDeviationInversionBound holds qdev's drain to the bound a
// bucketed list promises: every pair the quantized drain emits in the
// opposite order to the oracle shares a bucket, so the pair's true ranks
// differ by less than the width, and width 1 inverts nothing.
func TestQuantDeviationInversionBound(t *testing.T) {
	for _, width := range qdevWidths {
		ideal, got := quantDrainOrders(2048, width)
		if len(got) != len(ideal) {
			t.Fatalf("width %d: quantized drain has %d entries, oracle %d", width, len(got), len(ideal))
		}
		pos := make(map[uint32]int, len(ideal))
		rank := make(map[uint32]uint64, len(ideal))
		for i, e := range ideal {
			pos[e.ID], rank[e.ID] = i, e.Rank
		}
		inversions := 0
		for i, a := range got {
			for _, b := range got[i+1:] {
				if pos[a.ID] < pos[b.ID] {
					continue
				}
				inversions++
				if ra, rb := rank[a.ID], rank[b.ID]; max(ra, rb)-min(ra, rb) >= width {
					t.Fatalf("width %d: ids %d (rank %d) and %d (rank %d) inverted across buckets",
						width, a.ID, ra, b.ID, rb)
				}
			}
		}
		if width == 1 && inversions != 0 {
			t.Fatalf("width 1: %d inversions, want 0", inversions)
		}
	}
}

func TestAblationSqrtIsOptimal(t *testing.T) {
	tab := Ablation()
	best := math.Inf(1)
	bestCfg := ""
	for _, row := range tab.Rows {
		if row[0] != "sublist-size" || row[2] != "ALMs" {
			continue
		}
		alms := parseLeadingFloat(t, row[3])
		if alms < best {
			best = alms
			bestCfg = row[1]
		}
	}
	if !strings.Contains(bestCfg, "S=64") && !strings.Contains(bestCfg, "S=32") && !strings.Contains(bestCfg, "S=128") {
		t.Fatalf("minimum-logic sublist size = %q, want near sqrt(4096)=64", bestCfg)
	}
}

// TestRankCallsPlaceTheTriggerModel checks the §3.2.1 split the
// ablation's trigger-model rows report: input-triggered ranks every
// arrival and no dequeue; output-triggered ranks at the re-enqueue that
// follows nearly every dequeue, and at an arrival only when the flow was
// idle.
func TestRankCallsPlaceTheTriggerModel(t *testing.T) {
	if a, d := rankCalls(algos.Pacer(), 5000); a != 1 || d != 0 {
		t.Errorf("input-triggered: %.3f per arrival, %.3f per dequeue; want 1 and 0", a, d)
	}
	if a, d := rankCalls(paceOutput(), 5000); a > 0.1 || d < 0.8 || d > 1 {
		t.Errorf("output-triggered: %.3f per arrival, %.3f per dequeue; want ≈ 0 and ≈ 1", a, d)
	}
}

func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	return parseLeadingFloat(t, strings.TrimSuffix(strings.Fields(cell)[0], "%"))
}

func parseLeadingFloat(t *testing.T, cell string) float64 {
	t.Helper()
	fields := strings.Fields(cell)
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(fields[0], "%"), "x"), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", cell, err)
	}
	return v
}
