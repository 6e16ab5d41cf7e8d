package stats

import (
	"math"
	"testing"
	"testing/quick"

	"pieo/internal/clock"
)

func TestRateMeterGbps(t *testing.T) {
	m := NewRateMeter(0)
	// 1500 bytes every 120 ns is exactly 100 Gbps.
	for i := 1; i <= 10; i++ {
		m.Record(clock.Time(120*i), 1500)
	}
	got := m.Gbps()
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("Gbps = %v, want 100", got)
	}
	if m.Bytes() != 15000 || m.Packets() != 10 {
		t.Fatalf("Bytes/Packets = %d/%d, want 15000/10", m.Bytes(), m.Packets())
	}
}

func TestRateMeterEmptyWindow(t *testing.T) {
	m := NewRateMeter(100)
	if got := m.Gbps(); got != 0 {
		t.Fatalf("empty meter Gbps = %v, want 0", got)
	}
}

func TestRateMeterCloseAt(t *testing.T) {
	m := NewRateMeter(0)
	m.Record(100, 1000) // 8000 bits over 100 ns = 80 Gbps so far
	m.CloseAt(200)      // idle tail halves the average
	if got := m.Gbps(); math.Abs(got-40) > 1e-9 {
		t.Fatalf("Gbps = %v, want 40", got)
	}
}

func TestJainIndexEqualShares(t *testing.T) {
	if got := JainIndex([]float64{4, 4, 4, 4}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("JainIndex(equal) = %v, want 1", got)
	}
}

func TestJainIndexDominated(t *testing.T) {
	// One flow hogging everything among n flows gives exactly 1/n.
	got := JainIndex([]float64{10, 0, 0, 0, 0})
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("JainIndex(dominated) = %v, want 0.2", got)
	}
}

func TestJainIndexEdgeCases(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("JainIndex(nil) = %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("JainIndex(zeros) = %v, want 0", got)
	}
}

// Property: Jain's index always lies in [1/n, 1] for non-negative,
// not-all-zero allocations.
func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		allZero := true
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				allZero = false
			}
		}
		got := JainIndex(xs)
		if allZero {
			return got == 0
		}
		n := float64(len(xs))
		return got >= 1/n-1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || math.Abs(s.Mean-3) > 1e-12 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.P50 != 3 {
		t.Fatalf("P50 = %v, want 3", s.P50)
	}
	wantStd := math.Sqrt(2) // population stddev of 1..5
	if math.Abs(s.Stddev-wantStd) > 1e-12 {
		t.Fatalf("Stddev = %v, want %v", s.Stddev, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("Summarize(nil) = %+v", s)
	}
}

func TestOrderDeviationIdentical(t *testing.T) {
	maxDev, meanDev := OrderDeviation([]string{"a", "b", "c"}, []string{"a", "b", "c"})
	if maxDev != 0 || meanDev != 0 {
		t.Fatalf("deviation = %d/%v, want 0/0", maxDev, meanDev)
	}
}

func TestOrderDeviationSwap(t *testing.T) {
	maxDev, meanDev := OrderDeviation([]string{"a", "b", "c", "d"}, []string{"b", "a", "c", "d"})
	if maxDev != 1 {
		t.Fatalf("maxDev = %d, want 1", maxDev)
	}
	if math.Abs(meanDev-0.5) > 1e-12 {
		t.Fatalf("meanDev = %v, want 0.5", meanDev)
	}
}

func TestOrderDeviationWorstCase(t *testing.T) {
	// Reversal of n elements has max displacement n-1.
	want := []string{"a", "b", "c", "d", "e"}
	got := []string{"e", "d", "c", "b", "a"}
	maxDev, _ := OrderDeviation(want, got)
	if maxDev != 4 {
		t.Fatalf("maxDev = %d, want 4", maxDev)
	}
}

// TestOrderDeviationMismatchPanics holds the two orders to one set: a
// drain that loses its last elements, gains one, or repeats one in place
// of another would otherwise be scored on the elements the orders share
// and could read as exact.
func TestOrderDeviationMismatchPanics(t *testing.T) {
	for name, got := range map[string][]string{
		"lost tail": {"a", "b"},
		"extra":     {"x", "a", "b", "c"},
		"foreign":   {"a", "b", "x"},
		"repeat":    {"a", "a", "c"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: OrderDeviation(a b c, %v) did not panic", name, got)
				}
			}()
			OrderDeviation([]string{"a", "b", "c"}, got)
		}()
	}
}

func TestOrderDeviationDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ideal id did not panic")
		}
	}()
	OrderDeviation([]string{"a", "a"}, []string{"a"})
}
