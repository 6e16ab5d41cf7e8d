package experiments

import (
	"fmt"

	"pieo/internal/hwmodel"
	"pieo/internal/hwsim"
)

// sweepSizes are the scheduler sizes of the Fig 8-10 x-axis: 1K up to the
// paper's 30K operating point, plus 32K to show headroom.
var sweepSizes = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 30000, 1 << 15}

func sizeLabel(n int) string {
	if n%1024 == 0 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%d", n)
}

// sqrtShape is the PIEO datapath the figures count: capacity n at the
// paper's √n sublist size, as hwsim builds it.
func sqrtShape(n int) hwsim.Counts { return hwsim.Shape(n, hwsim.SublistSize(n)) }

// idBoundsShare is the share of the PIEO datapath's ALMs that §4.2's ID
// bounds take: the machine as built against the same shape with
// ID-bound fields of width 0, the paper's §5-only prototype.
func idBoundsShare(c hwsim.Counts) float64 {
	s5 := c
	s5.Entry.IDBounds = 0
	return 1 - float64(hwmodel.PIEOResources(s5).ALMs)/float64(hwmodel.PIEOResources(c).ALMs)
}

// Fig8 reproduces the logic-consumption scaling study: percent of the
// Stratix V's 234K ALMs consumed by PIEO vs PIFO as the scheduler grows.
func Fig8() *Table {
	dev := hwmodel.StratixV
	var rows [][]string
	for _, n := range sweepSizes {
		c := sqrtShape(n)
		pieo := hwmodel.PIEOResources(c)
		pifo := hwmodel.PIFOResources(n)
		pifoCell := fmt.Sprintf("%.1f%%", pifo.ALMPercent(dev))
		if !pifo.FitsOn(dev) {
			pifoCell += " (does not fit)"
		}
		rows = append(rows, []string{
			sizeLabel(n),
			fmt.Sprintf("%.1f%%", pieo.ALMPercent(dev)),
			pifoCell,
			fmt.Sprintf("%d", pieo.Comparators16),
			fmt.Sprintf("%d", pifo.Comparators16),
			fmt.Sprintf("%.1f%%", 100*idBoundsShare(c)),
		})
	}
	return &Table{
		ID:      "fig8",
		Title:   "Percent of logic modules (ALMs) consumed, out of 234K (Fig 8)",
		Columns: []string{"size", "PIEO ALMs", "PIFO ALMs", "PIEO comparators", "PIFO comparators", "PIEO ALMs in ID bounds"},
		Rows:    rows,
		Notes: []string{
			"PIFO calibrated to the paper's measured 64% at 1K; it cannot fit 2K or more",
			"PIEO grows as sqrt(N) and fits 30K+ elements easily",
			"PIEO counts the datapath hwsim builds: 2*ceil(N/S)+2 sublists, S+1 lanes, and §4.2's ID bounds in every pointer entry; the paper's §5-only prototype is the PIEO ALMs less the last column's share",
		},
	}
}

// Fig9 reproduces the SRAM-consumption study: percent of the device's
// 6.5 MB consumed by the PIEO ordered list (PIFO stores nothing in SRAM).
func Fig9() *Table {
	dev := hwmodel.StratixV
	var rows [][]string
	for _, n := range sweepSizes {
		c := sqrtShape(n)
		r := hwmodel.PIEOResources(c)
		rows = append(rows, []string{
			sizeLabel(n),
			fmt.Sprintf("%.2f%%", r.SRAMPercent(dev)),
			fmt.Sprintf("%.2f Mbit", float64(r.SRAMBits)/1e6),
			fmt.Sprintf("%d", r.SRAMBlocks(dev)),
			fmt.Sprintf("%dx%d", c.Sublists, c.SublistSize),
			fmt.Sprintf("%d bits (%.0f%% ID bounds)", c.Sublists*c.Entry.Total(), 100*float64(c.Entry.IDBounds)/float64(c.Entry.Total())),
		})
	}
	return &Table{
		ID:      "fig9",
		Title:   "Percent of SRAM consumed, out of 6.5 MB (Fig 9)",
		Columns: []string{"size", "SRAM used", "SRAM bits", "M20K blocks", "geometry", "pointer array"},
		Rows:    rows,
		Notes: []string{
			"the 2x overhead of Invariant 1 is included, and so are the two slack sublists; total stays modest even at 30K",
			"§4.2's ID bounds live in the pointer array's registers, not in SRAM: the paper's §5-only prototype has the same SRAM and a pointer array the last column's share smaller",
		},
	}
}

// Fig10 reproduces the clock-rate study: synthesized clock rate of the
// scheduler circuit vs size, for PIEO and the PIFO baseline.
func Fig10() *Table {
	var rows [][]string
	for _, n := range sweepSizes {
		pieoF := hwmodel.PIEOClockMHz(sqrtShape(n))
		pifoCell := fmt.Sprintf("%.0f MHz", hwmodel.PIFOClockMHz(n))
		if !hwmodel.PIFOResources(n).FitsOn(hwmodel.StratixV) {
			pifoCell += " (does not fit)"
		}
		rows = append(rows, []string{
			sizeLabel(n),
			fmt.Sprintf("%.0f MHz", pieoF),
			pifoCell,
			fmt.Sprintf("%.0f ns", hwmodel.NsPerOp(pieoF, hwmodel.CyclesPerOp)),
		})
	}
	return &Table{
		ID:      "fig10",
		Title:   "Clock rates achieved by the scheduler circuit (Fig 10)",
		Columns: []string{"size", "PIEO clock", "PIFO clock", "PIEO ns/op (4 cycles)"},
		Rows:    rows,
		Notes: []string{
			"calibrated to the paper's synthesis points: PIFO 57 MHz @ 1K, PIEO ~80 MHz @ 30K",
			"at 80 MHz one primitive op takes 50 ns < the 120 ns MTU budget at 100 Gbps",
		},
	}
}
