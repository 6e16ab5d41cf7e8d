package hwsim

import (
	"fmt"
	"math"
	"math/bits"
)

// Field widths, as §6 builds them: "We use 16-bit rank and predicate
// fields, same as in PIFO implementation." Flow IDs are 16 bits too.
const (
	RankBits = 16
	TimeBits = 16 // send_time, the encoded predicate
	FlowBits = 16
)

// Counts is the datapath's structure as counts: what New builds, without
// allocating it. It is the one description of the datapath's shape that
// the hardware cost model (internal/hwmodel) prices.
type Counts struct {
	Capacity    int // N
	SublistSize int // S, the words of one SRAM sublist
	// Sublists is 2⌈N/S⌉ + 2: Invariant 1's 2× and two slack sublists,
	// which keep the empty partition from running out at capacity. The
	// SRAM holds that many sublists, the register file one pointer entry
	// per sublist, and the pointer comparator bank and encoder are as
	// wide.
	Sublists int
	// Lanes is the width of the sublist comparator bank and encoder: a
	// staged sublist of S words plus the word an enqueue inserts into it
	// before a full sublist hands its tail on.
	Lanes    int
	Entry    EntryBits // the pointer entry's field widths
	WordBits int       // one SRAM word: flow id, rank, send_time, and the send_time's eligibility copy
}

// EntryBits is the width of each PointerEntry field.
type EntryBits struct {
	SublistID, SmallestRank, SmallestSendTime, Num int
	IDBounds                                       int // IDLo and IDHi, for §4.2's ranged select
}

// Total returns the width of one pointer entry.
func (e EntryBits) Total() int {
	return e.SublistID + e.SmallestRank + e.SmallestSendTime + e.Num + e.IDBounds
}

// SublistSize returns the paper's sublist size for capacity n, ⌈√n⌉.
func SublistSize(n int) int { return int(math.Ceil(math.Sqrt(float64(n)))) }

// Shape returns the structure of the datapath with capacity n and
// sublists of s words.
func Shape(n, s int) Counts {
	if n <= 0 || s <= 0 {
		panic(fmt.Sprintf("hwsim: shape of capacity %d, sublist size %d", n, s))
	}
	num := 2*((n+s-1)/s) + 2
	return Counts{
		Capacity:    n,
		SublistSize: s,
		Sublists:    num,
		Lanes:       s + 1,
		Entry: EntryBits{
			SublistID:        bits.Len(uint(num - 1)),
			SmallestRank:     RankBits,
			SmallestSendTime: TimeBits,
			Num:              bits.Len(uint(s)), // 0…S
			IDBounds:         2 * FlowBits,
		},
		WordBits: FlowBits + RankBits + 2*TimeBits,
	}
}
