// Package pipeline models the issue-rate analysis of §6.2. The PIEO
// datapath has four stages: C1 (pointer-array compare + priority
// encode), C2 (SRAM read of up to two sublists), C3 (sublist compare +
// encode), C4 (SRAM write-back + pointer-array update). Both memory
// stages consume BOTH ports of the dual-port SRAM, so the memory stages
// of different operations can never share a cycle — that is why the
// prototype is non-pipelined (one operation per four cycles).
//
// The paper notes that "by carefully scheduling the primitive
// operations, one can still achieve some degree of pipelining". This
// package quantifies that: a greedy in-order issue scheduler that only
// respects the SRAM port constraint (and serializes operations touching
// the same sublists, where the pointer-array forwarding assumption would
// not hold) reaches 0.5 operations per cycle on independent streams —
// double the prototype — while a hypothetical fully-pipelined datapath
// (e.g. quad-port SRAM) reaches 1.0.
package pipeline

import (
	"fmt"

	"pieo/internal/hwmodel"
)

// Mode selects the issue policy.
type Mode int

const (
	// NonPipelined issues one operation every hwmodel.CyclesPerOp cycles
	// — the paper's prototype.
	NonPipelined Mode = iota
	// PortAware issues in order at the earliest cycle whose memory
	// stages (issue+1, issue+3) do not collide with any earlier
	// operation's memory stages, serializing only true sublist hazards.
	PortAware
	// FullyPipelined issues one operation per cycle — the upper bound if
	// the SRAM port constraint were lifted.
	FullyPipelined
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case NonPipelined:
		return "non-pipelined"
	case PortAware:
		return "port-aware partial pipeline"
	case FullyPipelined:
		return "fully pipelined"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// memStages are the stage offsets (from issue) that occupy both SRAM
// ports.
var memStages = [2]int{1, 3}

// Op is one primitive operation in an issue stream, identified by the
// sublists it reads and writes (at most two, per the §5 design; -1 marks
// an unused slot).
type Op struct {
	Sublists [2]int
}

// Touches reports whether the op uses sublist s.
func (o Op) Touches(s int) bool {
	return s >= 0 && (o.Sublists[0] == s || o.Sublists[1] == s)
}

// Conflicts reports whether two ops touch a common sublist.
func (o Op) Conflicts(p Op) bool {
	return o.Touches(p.Sublists[0]) || o.Touches(p.Sublists[1])
}

// Result summarizes a simulated issue schedule.
type Result struct {
	Ops         int
	TotalCycles int
	OpsPerCycle float64
}

// Simulate runs the issue scheduler over the op stream in the given mode
// and returns the achieved issue rate. Ops are issued strictly in order
// (the scheduler cannot reorder the primitive operations of a packet
// scheduler without changing semantics).
func Simulate(ops []Op, mode Mode) Result {
	if len(ops) == 0 {
		return Result{}
	}
	switch mode {
	case NonPipelined:
		total := (len(ops)-1)*hwmodel.CyclesPerOp + hwmodel.CyclesPerOp
		return result(len(ops), total)
	case FullyPipelined:
		total := (len(ops) - 1) + hwmodel.CyclesPerOp
		return result(len(ops), total)
	case PortAware:
		return simulatePortAware(ops)
	default:
		panic(fmt.Sprintf("pipeline: unknown mode %d", int(mode)))
	}
}

func simulatePortAware(ops []Op) Result {
	usedMem := make(map[int]bool)
	issue := 0
	lastIssue := -1
	lastOp := Op{Sublists: [2]int{-1, -1}}
	for i, op := range ops {
		t := lastIssue + 1
		if i > 0 && op.Conflicts(lastOp) {
			// True hazard: the later op must observe the earlier op's
			// write-back; wait for the full datapath to drain.
			t = lastIssue + hwmodel.CyclesPerOp
		}
		for !memFree(usedMem, t) {
			t++
		}
		for _, s := range memStages {
			usedMem[t+s] = true
		}
		lastIssue = t
		lastOp = op
		issue = t
	}
	return result(len(ops), issue+hwmodel.CyclesPerOp)
}

func memFree(used map[int]bool, t int) bool {
	for _, s := range memStages {
		if used[t+s] {
			return false
		}
	}
	return true
}

func result(ops, cycles int) Result {
	return Result{Ops: ops, TotalCycles: cycles, OpsPerCycle: float64(ops) / float64(cycles)}
}

// IndependentStream builds a stream of n ops where consecutive ops touch
// disjoint sublist pairs (round-robin with stride 2 over numSublists),
// the best case for partial pipelining. numSublists must be an even
// number >= 8 so wraparound never makes neighbors collide.
func IndependentStream(n, numSublists int) []Op {
	if numSublists < 8 || numSublists%2 != 0 {
		panic("pipeline: independent stream needs an even sublist count >= 8")
	}
	ops := make([]Op, n)
	for i := range ops {
		a := (2 * i) % numSublists
		ops[i] = Op{Sublists: [2]int{a, (a + 1) % numSublists}}
	}
	return ops
}

// SameSublistStream builds the worst case: every op touches the same
// sublist, forcing full serialization.
func SameSublistStream(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Sublists: [2]int{0, 1}}
	}
	return ops
}
