// Package hwmodel estimates the hardware resources and clock rates of the
// PIEO and PIFO scheduler designs, reproducing the scaling studies of the
// paper's §6.1 (Fig 8: logic, Fig 9: SRAM) and §6.2 (Fig 10: clock rate).
//
// The paper prototyped both designs on an Altera Stratix V FPGA and
// reported synthesis results. We cannot synthesize RTL here, so this
// package substitutes an explicit cost model with two ingredients:
//
//  1. Structural counts computed exactly from each design's architecture
//     (flip-flop bits, 16-bit comparators, priority-encoder inputs, SRAM
//     bits and blocks). These carry the scaling laws the figures are
//     about: PIFO is Θ(N) in flip-flops/comparators, PIEO is Θ(√N) with
//     the list itself in SRAM at 2× overhead (Invariant 1).
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
)

// Device describes the resource budget of a target hardware device.
type Device struct {
	Name          string
	ALMs          int    // adaptive logic modules available
	SRAMBits      uint64 // total on-chip SRAM
	SRAMBlockBits uint64 // capacity of one dual-port SRAM block
}

// StratixV is the Altera Stratix V 5SGXA7 used by the paper's prototype:
// 234K ALMs, 52 Mbit (6.5 MB) of M20K SRAM in ~2500 dual-port 20 Kbit
// blocks, 40 Gbps interface bandwidth.
var StratixV = Device{
	Name:          "Stratix V",
	ALMs:          234_000,
	SRAMBits:      52 * 1000 * 1000,
	SRAMBlockBits: 20 * 1000,
}

// Field widths shared by both designs, matching §6: "We use 16-bit rank
// and predicate fields, same as in PIFO implementation."
const (
	RankBits = 16
	TimeBits = 16 // send_time (the encoded predicate)
	FlowBits = 16
)

// Geometry fixes the shape of a PIEO ordered list: capacity N split into
// NumSublists sublists of SublistSize elements each. The paper's design
// uses SublistSize = ⌈√N⌉ and NumSublists = 2·⌈N/SublistSize⌉ (Invariant 1
// needs the 2× slack).
type Geometry struct {
	Capacity    int
	SublistSize int
	NumSublists int
}

// PIEOGeometry returns the paper's √N geometry for capacity n.
func PIEOGeometry(n int) Geometry {
	if n <= 0 {
		panic(fmt.Sprintf("hwmodel: capacity must be positive, got %d", n))
	}
	s := int(math.Ceil(math.Sqrt(float64(n))))
	return GeometryWithSublistSize(n, s)
}

// GeometryWithSublistSize returns a geometry with an explicit sublist
// size, used by the sublist-size ablation.
func GeometryWithSublistSize(n, s int) Geometry {
	if n <= 0 || s <= 0 {
		panic(fmt.Sprintf("hwmodel: invalid geometry n=%d s=%d", n, s))
	}
	num := 2 * ((n + s - 1) / s)
	return Geometry{Capacity: n, SublistSize: s, NumSublists: num}
}

// PointerEntryBits returns the width of one Ordered-Sublist-Array entry:
// sublist_id + smallest_rank + smallest_send_time + num (§5.2).
func (g Geometry) PointerEntryBits() int {
	return ceilLog2(g.NumSublists) + RankBits + TimeBits + (ceilLog2(g.SublistSize) + 1)
}

// ElementBits returns the SRAM footprint of one element slot: the
// Rank-Sublist entry (flow_id, rank, send_time) plus the Eligibility-
// Sublist copy of send_time.
func (g Geometry) ElementBits() int {
	return FlowBits + RankBits + TimeBits + TimeBits
}

// Resources aggregates the structural counts and the derived ALM estimate
// for one scheduler instance.
type Resources struct {
	FlipFlopBits  int    // state that must live in registers
	Comparators16 int    // number of 16-bit parallel comparators
	EncoderInputs int    // total priority-encoder input width
	MuxBits       int    // shift/insert network width (bits moved per cycle)
	SRAMBits      uint64 // ordered-list storage in SRAM (0 for PIFO)
	SRAMBlocks    int    // dual-port blocks consumed (striping-aware)
	ALMs          int    // calibrated logic estimate
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

// PIEOResources computes the resource usage of a PIEO scheduler with
// geometry g, following §5.1-§5.2:
//
//   - flip-flops: the Ordered-Sublist-Array (NumSublists pointer entries)
//     plus staging registers for the two sublists read each operation,
//   - comparators: parallel compare over the pointer array (rank for
//     enqueue, send_time for dequeue) and over the two staged sublists
//     (rank + eligibility),
//   - priority encoders over the pointer array and the staged sublists,
//   - SRAM: NumSublists·SublistSize element slots (2× capacity).
func PIEOResources(g Geometry) Resources {
	ptrBits := g.NumSublists * g.PointerEntryBits()
	stageBits := 2 * g.SublistSize * g.ElementBits()
	ff := ptrBits + stageBits

	// Pointer array: one rank comparator and one send_time comparator
	// per entry. Staged sublists: rank compare over S, eligibility
	// compare over S for each of the two staged sublists.
	cmp := 2*g.NumSublists + 3*g.SublistSize

	// Encoders: two over the pointer array (enqueue select, dequeue
	// select) and four over sublists (enqueue pos, dequeue pos,
	// eligibility insert/remove pos).
	enc := 2*g.NumSublists + 4*g.SublistSize

	// Shift networks: pointer-array rearrangement plus sublist
	// insert/delete muxing for the two staged sublists.
	mux := g.NumSublists*g.PointerEntryBits() + 2*g.SublistSize*g.ElementBits()

	sramBits := uint64(g.NumSublists) * uint64(g.SublistSize) * uint64(g.ElementBits())

	alms := int(math.Round(
		almPerFFBit*float64(ff) +
			almPer16bCmp*float64(cmp) +
			almPerEncInput*float64(enc) +
			almPerMuxBit*float64(mux) +
			pieoControlALMs))

	return Resources{
		FlipFlopBits:  ff,
		Comparators16: cmp,
		EncoderInputs: enc,
		MuxBits:       mux,
		SRAMBits:      sramBits,
		SRAMBlocks:    pieoSRAMBlocks(g),
		ALMs:          alms,
	}
}

// pieoSRAMBlocks counts dual-port blocks under the §5.1 striping: the
// elements of each sublist are striped across SublistSize block columns so
// a whole sublist is readable in one cycle; each column holds NumSublists
// element slots and must be deep/wide enough for them.
func pieoSRAMBlocks(g Geometry) int {
	columnBits := uint64(g.NumSublists) * uint64(g.ElementBits())
	blocksPerColumn := int((columnBits + StratixV.SRAMBlockBits - 1) / StratixV.SRAMBlockBits)
	if blocksPerColumn < 1 {
		blocksPerColumn = 1
	}
	return g.SublistSize * blocksPerColumn
}

// PIFOResources computes the resource usage of the baseline PIFO
// (parallel compare-and-shift, §2.3/[29]): the whole list lives in
// flip-flops with one comparator per element. The ALM figure uses the
// per-element constant calibrated to the paper's measured 64% @ 1K.
func PIFOResources(n int) Resources {
	if n <= 0 {
		panic(fmt.Sprintf("hwmodel: capacity must be positive, got %d", n))
	}
	entryBits := FlowBits + RankBits + TimeBits
	ff := n * entryBits
	return Resources{
		FlipFlopBits:  ff,
		Comparators16: n,
		EncoderInputs: n,
		MuxBits:       ff,
		SRAMBits:      0,
		SRAMBlocks:    0,
		ALMs:          int(math.Round(pifoALMPerElement * float64(n))),
	}
}

// FitsOn reports whether r fits the device's logic and SRAM budgets.
func (r Resources) FitsOn(d Device) bool {
	return r.ALMs <= d.ALMs && r.SRAMBits <= d.SRAMBits
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
// constants to the paper's reported synthesis points: PIEO ≈125 MHz at 1K
// and ≈80 MHz at 30K; PIFO 57 MHz at 1K on the same device. PIFO's fan-in
// is the whole list (W = N); PIEO's is the pointer array (W = 2√N).
const (
	clockB     = -1.68
	pieoClockC = 540.0
	pifoClockC = 474.0
)

// PIEOClockMHz estimates the synthesized clock rate of a PIEO scheduler
// with geometry g on the paper's FPGA.
func PIEOClockMHz(g Geometry) float64 {
	w := float64(g.NumSublists)
	if w < 4 {
		w = 4
	}
	return pieoClockC / (math.Log2(w) + clockB)
}

// PIFOClockMHz estimates the synthesized clock rate of an N-element PIFO
// on the paper's FPGA.
func PIFOClockMHz(n int) float64 {
	w := float64(n)
	if w < 4 {
		w = 4
	}
	return pifoClockC / (math.Log2(w) + clockB)
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

// SchedulingRateMops returns the scheduling rate in million operations
// per second: clockMHz/cycles, which is 1e3/NsPerOp.
func SchedulingRateMops(clockMHz float64, cycles int) float64 {
	return clockMHz / float64(cycles)
}

// MaxPIEOFit returns the largest capacity (in elements) whose PIEO
// instance fits device d, searching powers-of-two-friendly steps. Used
// for the ">30× more scalable" headline and the devices sweep.
func MaxPIEOFit(d Device) int {
	return maxFit(d, func(n int) Resources { return PIEOResources(PIEOGeometry(n)) })
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

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}
