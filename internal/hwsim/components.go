// Package hwsim is a structural, component-level elaboration of the §5
// hardware design — the closest Go gets to the paper's System Verilog —
// and the repo's one model of the datapath's cost. It builds the datapath
// out of explicit components:
//
//   - a register file of Ordered-Sublist-Array pointer entries,
//   - parallel comparator banks and priority encoders,
//   - a dual-port SRAM whose per-cycle port usage is ASSERTED, not
//     counted: a third access in the same cycle panics.
//
// Each primitive operation — enqueue, dequeue, ranged dequeue, dequeue(f),
// and the re-rank and eviction built on them — runs as an explicit
// micro-program (compare/encode → read → compare/encode → write), the
// cycle counter advancing phase by phase. Its tests hold it to
// internal/core on the conformance programs of internal/refmodel/conform,
// answer and cost (cycles, SRAM reads, SRAM writes) operation by
// operation, and cmd/pieotrace walks it to print Fig 6/7.
package hwsim

import (
	"fmt"
	"math"
)

// PriorityEncoder returns the smallest index whose input bit is set
// (Fig 5's "priority encoder takes as input a bit vector and returns the
// smallest index containing 1"). Width is fixed at construction;
// activations are counted for resource reporting.
type PriorityEncoder struct {
	Width       int
	Activations uint64
}

// NewPriorityEncoder creates an encoder of the given width.
func NewPriorityEncoder(width int) *PriorityEncoder {
	if width <= 0 {
		panic(fmt.Sprintf("hwsim: encoder width %d", width))
	}
	return &PriorityEncoder{Width: width}
}

// Encode returns the first set index, or -1 when no bit is set.
func (p *PriorityEncoder) Encode(bits []bool) int {
	if len(bits) > p.Width {
		panic(fmt.Sprintf("hwsim: %d bits into a %d-wide encoder", len(bits), p.Width))
	}
	p.Activations++
	for i, b := range bits {
		if b {
			return i
		}
	}
	return -1
}

// ComparatorBank models a bank of parallel comparators: one Compare call
// evaluates a predicate across up to Width lanes in a single cycle.
type ComparatorBank struct {
	Width       int
	Activations uint64 // individual comparator firings
}

// NewComparatorBank creates a bank of the given width.
func NewComparatorBank(width int) *ComparatorBank {
	if width <= 0 {
		panic(fmt.Sprintf("hwsim: comparator bank width %d", width))
	}
	return &ComparatorBank{Width: width}
}

// Compare evaluates pred over n lanes and returns the bit vector.
func (c *ComparatorBank) Compare(n int, pred func(lane int) bool) []bool {
	if n > c.Width {
		panic(fmt.Sprintf("hwsim: %d lanes on a %d-wide bank", n, c.Width))
	}
	c.Activations += uint64(n)
	bits := make([]bool, n)
	for i := 0; i < n; i++ {
		bits[i] = pred(i)
	}
	return bits
}

// Word is one stored element: the Rank-Sublist entry fields of §5.2.
type Word struct {
	FlowID   uint32
	Rank     uint64
	SendTime uint64
}

// SublistImage is the SRAM image of one sublist: the rank-ordered words
// plus the eligibility-ordered send-time copies.
type SublistImage struct {
	Rank []Word   // Rank-Sublist
	Elig []uint64 // Eligibility-Sublist
}

func (s SublistImage) clone() SublistImage {
	return SublistImage{
		Rank: append([]Word(nil), s.Rank...),
		Elig: append([]uint64(nil), s.Elig...),
	}
}

// DualPortSRAM stores the sublist array and enforces the §5.1 port
// discipline: at most two sublist accesses (reads+writes combined) per
// cycle. The cycle is supplied by the machine; an access on a stale
// cycle or a third access in one cycle is a datapath bug and panics.
type DualPortSRAM struct {
	Reads, Writes uint64

	images    []SublistImage
	cycle     uint64
	portsUsed int
}

// NewDualPortSRAM allocates numSublists empty sublists.
func NewDualPortSRAM(numSublists int) *DualPortSRAM {
	return &DualPortSRAM{images: make([]SublistImage, numSublists)}
}

// BeginCycle opens a new memory cycle, resetting the port budget.
func (m *DualPortSRAM) BeginCycle(cycle uint64) {
	if cycle <= m.cycle && cycle != 0 {
		panic(fmt.Sprintf("hwsim: memory cycle moved backwards %d -> %d", m.cycle, cycle))
	}
	m.cycle = cycle
	m.portsUsed = 0
}

func (m *DualPortSRAM) usePort(kind string, id int) {
	if m.portsUsed >= 2 {
		panic(fmt.Sprintf("hwsim: third SRAM access (%s sublist %d) in cycle %d — dual-port budget exceeded", kind, id, m.cycle))
	}
	m.portsUsed++
}

// Read fetches a sublist image through one SRAM port.
func (m *DualPortSRAM) Read(id int) SublistImage {
	m.usePort("read", id)
	m.Reads++
	return m.images[id].clone()
}

// Write stores a sublist image through one SRAM port.
func (m *DualPortSRAM) Write(id int, img SublistImage) {
	m.usePort("write", id)
	m.Writes++
	m.images[id] = img.clone()
}

// Peek inspects a sublist without consuming a port (checks, tracing, PeekMax).
func (m *DualPortSRAM) Peek(id int) SublistImage { return m.images[id].clone() }

// PointerEntry is one Ordered-Sublist-Array register (§5.2). IDLo and
// IDHi bound the flow IDs resident in the sublist, for the ranged
// select's second conjunct (§4.2): every resident lies inside them, an
// insert or Invariant-1 move widens them, a removal leaves them as they
// are, an emptied sublist clears them to the inverted interval
// [MaxUint32, 0], and a ranged read that misses sets them exact.
type PointerEntry struct {
	SublistID        int
	SmallestRank     uint64
	SmallestSendTime uint64
	Num              int
	IDLo, IDHi       uint32
}

// admit widens the resident-ID bounds to cover id.
func (e *PointerEntry) admit(id uint32) {
	e.IDLo = min(e.IDLo, id)
	e.IDHi = max(e.IDHi, id)
}

// clearIDs sets the bounds of an empty sublist, which no ranged select
// passes.
func (e *PointerEntry) clearIDs() { e.IDLo, e.IDHi = math.MaxUint32, 0 }

// RegisterFile holds the pointer array in "flip-flops": plain registers
// with whole-array shift support, as the compare-and-shift architecture
// provides.
type RegisterFile struct {
	Entries []PointerEntry
	Shifts  uint64 // entry-positions moved, for resource reporting
}

// NewRegisterFile builds the pointer array over numSublists sublists,
// all initially empty.
func NewRegisterFile(numSublists int) *RegisterFile {
	rf := &RegisterFile{Entries: make([]PointerEntry, numSublists)}
	for i := range rf.Entries {
		rf.Entries[i] = PointerEntry{SublistID: i, SmallestSendTime: NeverTime}
		rf.Entries[i].clearIDs()
	}
	return rf
}

// NeverTime encodes the always-false predicate (§5.2: "predicate that is
// always false is encoded by assigning send_time to ∞").
const NeverTime = ^uint64(0)

// InsertAt rotates the entry at position from into position to (to <=
// from), shifting the in-between entries right — the hardware's pointer
// re-arrangement when a fresh sublist is claimed.
func (rf *RegisterFile) InsertAt(to, from int) {
	if to > from {
		panic(fmt.Sprintf("hwsim: InsertAt(%d, %d)", to, from))
	}
	moved := rf.Entries[from]
	copy(rf.Entries[to+1:from+1], rf.Entries[to:from])
	rf.Entries[to] = moved
	rf.Shifts += uint64(from - to)
}

// RemoveAt rotates the entry at position from out to position to (from
// <= to), shifting the in-between entries left — retiring an emptied
// sublist to the empty partition.
func (rf *RegisterFile) RemoveAt(from, to int) {
	if from > to {
		panic(fmt.Sprintf("hwsim: RemoveAt(%d, %d)", from, to))
	}
	moved := rf.Entries[from]
	copy(rf.Entries[from:to], rf.Entries[from+1:to+1])
	rf.Entries[to] = moved
	rf.Shifts += uint64(to - from)
}
