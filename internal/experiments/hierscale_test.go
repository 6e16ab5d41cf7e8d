package experiments

import (
	"strconv"
	"testing"
)

// TestHierScaleReduced runs the partitioning-at-scale study at smoke
// size and checks the two properties the full run must exhibit: every
// partitioned layout transmits byte-identically to the per-level oracle
// (same measured rate, same packet count), and enforcement holds — the
// sampled VM's measured rate stays within tolerance of its limit.
func TestHierScaleReduced(t *testing.T) {
	tbl := hierScale(10, 10, 2_000_000)
	nVariants := len(hierScaleVariants())
	if len(tbl.Rows) != len(hierScaleRates)*nVariants {
		t.Fatalf("want %d rows, got %d", len(hierScaleRates)*nVariants, len(tbl.Rows))
	}
	for i := 0; i < len(tbl.Rows); i += nVariants {
		oracle := tbl.Rows[i]
		if oracle[0] != "per-level/core" {
			t.Fatalf("row %d: oracle row out of position: %v", i, oracle)
		}
		for j := 1; j < nVariants; j++ {
			part := tbl.Rows[i+j]
			// measured Gbps, Jain, and packet count must match the
			// oracle exactly — the partitioned layout is bit-exact.
			for _, col := range []int{3, 5, 6} {
				if part[col] != oracle[col] {
					t.Errorf("rate %s: %s %s=%s, oracle %s",
						oracle[2], part[0], tbl.Columns[col], part[col], oracle[col])
				}
			}
		}
		rate, _ := strconv.ParseFloat(oracle[2], 64)
		got, _ := strconv.ParseFloat(oracle[3], 64)
		// 2 ms windows quantize coarsely; enforcement within 15% is the
		// smoke bar (the committed full run holds a much tighter error).
		if got < rate*0.85 || got > rate*1.15 {
			t.Errorf("rate %.0f: measured %.3f outside 15%% tolerance", rate, got)
		}
	}
}
