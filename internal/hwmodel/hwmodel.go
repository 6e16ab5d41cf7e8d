// Package hwmodel prices the PIEO and PIFO scheduler designs in hardware
// resources and clock rate, reproducing the scaling studies of the
// paper's §6.1 (Fig 8: logic, Fig 9: SRAM) and §6.2 (Fig 10: clock rate).
//
// The paper prototyped both designs on an Altera Stratix V FPGA and
// reported synthesis results. We cannot synthesize RTL here, so this
// package is calibration only, applied to structure described elsewhere:
//
//  1. PIEO's structure is internal/hwsim's: hwsim.Shape counts the
//     register file, comparator banks, encoders and SRAM that hwsim.New
//     builds, and the lockstep tests hold that machine to internal/core.
//     PIFO's is one registered entry and one comparator per element.
//     These counts carry the scaling laws the figures are about: PIFO is
//     Θ(N) in flip-flops/comparators, PIEO is Θ(√N) with the list itself
//     in SRAM at 2× overhead (Invariant 1).
//  2. Calibration constants mapping counts to Adaptive Logic Modules
//     (ALMs) and critical-path delay, pinned to the numbers the paper
//     reports: the open-source PIFO consumes 64% of 234K ALMs at 1K
//     elements and clocks at 57 MHz; PIEO runs at ≈80 MHz at 30K elements
//     and "easily fits" the device; an ASIC implementation clocks at
//     1 GHz.
//
// The shapes (who wins, where the feasibility cliffs fall) come from the
// structural counts; only the absolute scale comes from calibration.
package hwmodel

import (
	"fmt"
	"math"

	"pieo/internal/hwsim"
)

// Device describes the resource budget of a target hardware device.
type Device struct {
	Name          string
	ALMs          int     // adaptive logic modules available
	SRAMBits      uint64  // total on-chip SRAM
	SRAMBlockBits uint64  // capacity of one dual-port SRAM block
	ClockScale    float64 // factor on the Stratix V-calibrated clock model
}

// StratixV is the Altera Stratix V 5SGXA7 used by the paper's prototype:
// 234K ALMs, 52 Mbit (6.5 MB) of M20K SRAM in ~2500 dual-port 20 Kbit
// blocks, 40 Gbps interface bandwidth.
var StratixV = Device{
	Name:          "Stratix V",
	ALMs:          234_000,
	SRAMBits:      52 * 1000 * 1000,
	SRAMBlockBits: 20 * 1000,
	ClockScale:    1,
}

// Resources aggregates the structural counts and the derived ALM estimate
// for one scheduler instance. The SRAM blocks it takes depend on the
// device's block size, so they are a method, like the percentages.
type Resources struct {
	FlipFlopBits  int    // state that must live in registers
	Comparators16 int    // number of 16-bit parallel comparators
	EncoderInputs int    // total priority-encoder input width
	SRAMBits      uint64 // ordered-list storage in SRAM (0 for PIFO)
	ALMs          int    // calibrated logic estimate

	// The SRAM's block columns (see SRAMBlocks): how many, and the bits
	// each holds. PIFO has none.
	columns    int
	columnBits uint64
}

// Calibrated ALM cost constants. A Stratix V ALM packs two flip-flops and
// an adaptive LUT; comparators map ~2 bits per ALM via carry chains;
// encoder and mux costs are LUT-bound. The PIFO per-element constant is
// pinned to the paper's measured 64% @ 1K for the open-source PIFO RTL,
// which is substantially heavier than a component count would suggest
// (per-element enqueue decode + full shift network).
const (
	almPerFFBit       = 0.5
	almPer16bCmp      = 8.0
	almPerEncInput    = 0.5
	almPerMuxBit      = 0.25
	pieoControlALMs   = 2000 // FSM, address generation, port arbitration
	pifoALMPerElement = 146.25
)

// PIEOResources prices the PIEO datapath of shape c, following
// §5.1-§5.2 and §4.2:
//
//   - flip-flops: the register file (one pointer entry per sublist) plus
//     the two staged sublists read each operation, a word per lane,
//   - comparators: on the pointer array, one 16-bit comparator per 16
//     compared bits of each entry — its smallest rank (enqueue select),
//     smallest send_time (dequeue select) and ID bounds (ranged select);
//     on each lane, a rank compare and an eligibility compare for each of
//     the two staged sublists,
//   - priority encoders: two over the pointer array (enqueue and dequeue
//     select) and four over the lanes (enqueue and dequeue position,
//     eligibility insert and remove position),
//   - shift networks: every registered bit moves — the pointer array
//     rearranges and the staged sublists insert and delete,
//   - SRAM: Sublists·SublistSize words (2× capacity, plus the slack).
func PIEOResources(c hwsim.Counts) Resources {
	ff := c.Sublists*c.Entry.Total() + 2*c.Lanes*c.WordBits
	cmp := c.Sublists*(c.Entry.SmallestRank+c.Entry.SmallestSendTime+c.Entry.IDBounds)/16 + 3*c.Lanes
	enc := 2*c.Sublists + 4*c.Lanes
	alms := int(math.Round(
		(almPerFFBit+almPerMuxBit)*float64(ff) +
			almPer16bCmp*float64(cmp) +
			almPerEncInput*float64(enc) +
			pieoControlALMs))
	return Resources{
		FlipFlopBits:  ff,
		Comparators16: cmp,
		EncoderInputs: enc,
		SRAMBits:      uint64(c.Sublists) * uint64(c.SublistSize) * uint64(c.WordBits),
		ALMs:          alms,
		columns:       c.SublistSize,
		columnBits:    uint64(c.Sublists) * uint64(c.WordBits),
	}
}

// SRAMBlocks counts the dual-port blocks of d that r's SRAM takes under
// the §5.1 striping: the words of each sublist are striped across
// SublistSize block columns so a whole sublist is readable in one cycle;
// each column holds one word of every sublist, in as many of d's blocks
// as those words fill.
func (r Resources) SRAMBlocks(d Device) int {
	return r.columns * max(int((r.columnBits+d.SRAMBlockBits-1)/d.SRAMBlockBits), 1)
}

// PIFOResources computes the resource usage of the baseline PIFO
// (parallel compare-and-shift, §2.3/[29]): the whole list lives in
// flip-flops with one comparator per element. The ALM figure uses the
// per-element constant calibrated to the paper's measured 64% @ 1K.
func PIFOResources(n int) Resources {
	if n <= 0 {
		panic(fmt.Sprintf("hwmodel: capacity must be positive, got %d", n))
	}
	return Resources{
		FlipFlopBits:  n * (hwsim.FlowBits + hwsim.RankBits + hwsim.TimeBits),
		Comparators16: n,
		EncoderInputs: n,
		SRAMBits:      0,
		ALMs:          int(math.Round(pifoALMPerElement * float64(n))),
	}
}

// FitsOn reports whether r fits the device's logic and SRAM budgets: its
// ALMs, its SRAM bits, and its SRAM blocks out of the SRAMBits /
// SRAMBlockBits that d has.
func (r Resources) FitsOn(d Device) bool {
	return r.ALMs <= d.ALMs && r.SRAMBits <= d.SRAMBits &&
		uint64(r.SRAMBlocks(d)) <= d.SRAMBits/d.SRAMBlockBits
}

// ALMPercent returns the fraction of d's ALMs consumed, in percent.
func (r Resources) ALMPercent(d Device) float64 {
	return 100 * float64(r.ALMs) / float64(d.ALMs)
}

// SRAMPercent returns the fraction of d's SRAM consumed, in percent.
func (r Resources) SRAMPercent(d Device) float64 {
	return 100 * float64(r.SRAMBits) / float64(d.SRAMBits)
}

// Clock-rate model (Fig 10). The critical path of both designs is a
// parallel compare feeding a priority encoder; its delay grows with the
// logarithm of the fan-in. We model f = c / (log2(W) + b) MHz and pin the
// constants to the paper's reported synthesis points: PIEO ≈124 MHz at 1K
// and ≈80 MHz at 30K; PIFO 57 MHz at 1K on the same device. PIFO's fan-in
// is the whole list (W = N); PIEO's is the pointer array (W = Sublists,
// about 2√N).
const (
	clockB     = -1.68
	pieoClockC = 540.0
	pifoClockC = 474.0
)

// PIEOClockMHz estimates the synthesized clock rate of the PIEO datapath
// of shape c on the paper's FPGA.
func PIEOClockMHz(c hwsim.Counts) float64 {
	return pieoClockC / (math.Log2(float64(max(c.Sublists, 4))) + clockB)
}

// PIFOClockMHz estimates the synthesized clock rate of an N-element PIFO
// on the paper's FPGA.
func PIFOClockMHz(n int) float64 {
	return pifoClockC / (math.Log2(float64(max(n, 4))) + clockB)
}

// ASICClockMHz is the clock rate the paper cites for an ASIC
// implementation (PIFO's authors report 1 GHz; §6.2 argues PIEO's 4-cycle
// operation takes 4 ns there).
const ASICClockMHz = 1000.0

// CyclesPerOp is the number of clock cycles each PIEO primitive operation
// takes in the non-pipelined design (§5.2, §6.2).
const CyclesPerOp = 4

// NsPerOp converts a clock rate and per-op cycle count into nanoseconds
// per primitive operation.
func NsPerOp(clockMHz float64, cycles int) float64 {
	return float64(cycles) * 1000 / clockMHz
}

// MaxPIEOFit returns the largest capacity (in elements) whose PIEO
// datapath, at the paper's √N sublist size, fits device d. Used by the
// devices sweep, whose Stratix V row is the ">30× more scalable"
// headline.
func MaxPIEOFit(d Device) int {
	return maxFit(d, func(n int) Resources { return PIEOResources(hwsim.Shape(n, hwsim.SublistSize(n))) })
}

// MaxPIFOFit returns the largest capacity whose PIFO instance fits d.
func MaxPIFOFit(d Device) int {
	return maxFit(d, PIFOResources)
}

func maxFit(d Device, res func(int) Resources) int {
	lo, hi := 1, 1
	for res(hi).FitsOn(d) {
		lo = hi
		hi *= 2
		if hi > 1<<30 {
			return lo
		}
	}
	// Binary search in (lo, hi]: lo fits, hi does not.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if res(mid).FitsOn(d) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
