package hwsim

import (
	"errors"
	"fmt"
	"math"

	"pieo/internal/idtab"
)

// Machine is the elaborated PIEO scheduler datapath: register file +
// comparator banks + priority encoders + dual-port SRAM, executing each
// primitive operation as the §5.2 four-phase micro-program. Notably it
// stores NO insertion sequence numbers: the paper's FIFO tie-break among
// equal ranks emerges purely from insert-after-equals placement and
// stable sublist positions, which the differential tests verify against
// internal/core's explicit (rank, seq) ordering.
type Machine struct {
	capacity    int
	sublistSize int

	mem    *DualPortSRAM
	rf     *RegisterFile
	ptrCmp *ComparatorBank
	ptrEnc *PriorityEncoder
	subCmp *ComparatorBank
	subEnc *PriorityEncoder

	active int
	size   int
	cycle  uint64
	where  idtab.Table[idtab.ID, uint32] // flow id -> sublist id + 1 (§5.2 flow state)
}

// Machine errors mirror the functional model's.
var (
	ErrFull      = errors.New("hwsim: machine full")
	ErrDuplicate = errors.New("hwsim: flow already enqueued")
)

// New builds a machine with capacity n and the paper's √n sublists.
func New(n int) *Machine {
	if n <= 0 {
		panic(fmt.Sprintf("hwsim: capacity %d", n))
	}
	s := int(math.Ceil(math.Sqrt(float64(n))))
	num := 2*((n+s-1)/s) + 2
	return &Machine{
		capacity:    n,
		sublistSize: s,
		mem:         NewDualPortSRAM(num),
		rf:          NewRegisterFile(num),
		ptrCmp:      NewComparatorBank(num),
		ptrEnc:      NewPriorityEncoder(num),
		subCmp:      NewComparatorBank(s + 1),
		subEnc:      NewPriorityEncoder(s + 1),
		where:       idtab.New[idtab.ID, uint32](n),
	}
}

// Len returns the number of stored elements.
func (m *Machine) Len() int { return m.size }

// Cycle returns the machine's clock-cycle counter.
func (m *Machine) Cycle() uint64 { return m.cycle }

// Stats summarizes component activity.
type Stats struct {
	Cycles            uint64
	SRAMReads         uint64
	SRAMWrites        uint64
	PtrComparators    uint64
	SubComparators    uint64
	PtrEncodes        uint64
	SubEncodes        uint64
	PointerShifts     uint64
	PeakActiveSublist int
}

// Stats returns the accumulated component counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Cycles:         m.cycle,
		SRAMReads:      m.mem.Reads,
		SRAMWrites:     m.mem.Writes,
		PtrComparators: m.ptrCmp.Activations,
		SubComparators: m.subCmp.Activations,
		PtrEncodes:     m.ptrEnc.Activations,
		SubEncodes:     m.subEnc.Activations,
		PointerShifts:  m.rf.Shifts,
	}
}

// full reports whether the image holds a complete sublist.
func (m *Machine) fullImg(img SublistImage) bool { return len(img.Rank) == m.sublistSize }

// Enqueue runs the §5.2 enqueue micro-program.
func (m *Machine) Enqueue(w Word) error {
	if m.size == m.capacity {
		return ErrFull
	}
	if _, dup := m.where.Get(idtab.ID(w.FlowID)); dup {
		return ErrDuplicate
	}

	// Cycle 1: select the target sublist on the pointer array.
	m.cycle++
	pos := 0
	if m.active == 0 {
		// Empty machine: the head of the empty partition becomes the
		// first active sublist.
		m.active = 1
	} else {
		bits := m.ptrCmp.Compare(m.active, func(i int) bool {
			return m.rf.Entries[i].SmallestRank > w.Rank
		})
		j := m.ptrEnc.Encode(bits)
		switch {
		case j == -1:
			pos = m.active - 1
		case j == 0:
			pos = 0
		default:
			pos = j - 1
		}
	}

	// Cycle 2: read S (and S' when S is full).
	m.cycle++
	m.mem.BeginCycle(m.cycle)
	sID := m.rf.Entries[pos].SublistID
	img := m.mem.Read(sID)
	wasFull := m.fullImg(img)
	spPos := -1
	var spImg SublistImage
	if wasFull {
		if pos+1 < m.active && m.rf.Entries[pos+1].Num < m.sublistSize {
			spPos = pos + 1
			spImg = m.mem.Read(m.rf.Entries[spPos].SublistID)
		} else {
			// Claim a fresh empty sublist and rotate it to pos+1; it is
			// empty, so no SRAM read is needed.
			m.rf.InsertAt(pos+1, m.active)
			m.active++
			spPos = pos + 1
		}
	}

	// Cycle 3: find positions with comparators + encoders and mutate the
	// staged images.
	m.cycle++
	m.insertWord(&img, w)
	m.where.Insert(idtab.ID(w.FlowID), uint32(sID)+1)
	if wasFull {
		tail := img.Rank[len(img.Rank)-1]
		img.Rank = img.Rank[:len(img.Rank)-1]
		m.removeElig(&img, tail.SendTime)
		// §5.2: "the tail element in S.Rank-Sublist will be moved to the
		// head of S'.Rank-Sublist" — deterministic head placement keeps
		// equal-rank words in their original (FIFO) order.
		m.insertHead(&spImg, tail)
		m.where.Set(idtab.ID(tail.FlowID), uint32(m.rf.Entries[spPos].SublistID)+1)
	}

	// Cycle 4: write back and refresh pointer metadata.
	m.cycle++
	m.mem.BeginCycle(m.cycle)
	m.mem.Write(sID, img)
	m.refresh(pos, img)
	if wasFull {
		m.mem.Write(m.rf.Entries[spPos].SublistID, spImg)
		m.refresh(spPos, spImg)
	}
	m.size++
	return nil
}

// Dequeue runs the §5.2 dequeue micro-program at the given time.
func (m *Machine) Dequeue(now uint64) (Word, bool) {
	// Cycle 1: first sublist whose smallest send time has passed.
	m.cycle++
	if m.active == 0 {
		return Word{}, false
	}
	bits := m.ptrCmp.Compare(m.active, func(i int) bool {
		return now >= m.rf.Entries[i].SmallestSendTime
	})
	pos := m.ptrEnc.Encode(bits)
	if pos == -1 {
		return Word{}, false
	}
	return m.extract(pos, func(img SublistImage) int {
		b := m.subCmp.Compare(len(img.Rank), func(i int) bool {
			return img.Rank[i].SendTime <= now
		})
		return m.subEnc.Encode(b)
	})
}

// DequeueFlow runs the dequeue(f) micro-program.
func (m *Machine) DequeueFlow(id uint32) (Word, bool) {
	v, ok := m.where.Get(idtab.ID(id))
	if !ok {
		return Word{}, false
	}
	sID := int(v) - 1
	// Cycle 1: locate the sublist's pointer position (parallel compare
	// on sublist ids).
	m.cycle++
	bits := m.ptrCmp.Compare(m.active, func(i int) bool {
		return m.rf.Entries[i].SublistID == sID
	})
	pos := m.ptrEnc.Encode(bits)
	if pos == -1 {
		panic(fmt.Sprintf("hwsim: flow state points at inactive sublist %d", sID))
	}
	return m.extract(pos, func(img SublistImage) int {
		b := m.subCmp.Compare(len(img.Rank), func(i int) bool {
			return img.Rank[i].FlowID == id
		})
		return m.subEnc.Encode(b)
	})
}

// extract performs cycles 2–4 of any dequeue variant: read S (plus a
// non-full donor neighbor when S is full), remove the element selected
// by pick, refill to preserve Invariant 1, write back, and retire
// emptied sublists.
func (m *Machine) extract(pos int, pick func(SublistImage) int) (Word, bool) {
	// Cycle 2: reads.
	m.cycle++
	m.mem.BeginCycle(m.cycle)
	sID := m.rf.Entries[pos].SublistID
	img := m.mem.Read(sID)
	wasFull := m.fullImg(img)

	donorPos := -1
	var donorImg SublistImage
	donorLeft := false
	if wasFull {
		if pos > 0 && m.rf.Entries[pos-1].Num < m.sublistSize {
			donorPos = pos - 1
			donorLeft = true
			donorImg = m.mem.Read(m.rf.Entries[donorPos].SublistID)
		} else if pos+1 < m.active && m.rf.Entries[pos+1].Num < m.sublistSize {
			donorPos = pos + 1
			donorImg = m.mem.Read(m.rf.Entries[donorPos].SublistID)
		}
	}

	// Cycle 3: selection and mutation of the staged images.
	m.cycle++
	idx := pick(img)
	if idx == -1 {
		panic(fmt.Sprintf("hwsim: metadata promised an element in sublist %d but none matched", sID))
	}
	out := img.Rank[idx]
	copy(img.Rank[idx:], img.Rank[idx+1:])
	img.Rank = img.Rank[:len(img.Rank)-1]
	m.removeElig(&img, out.SendTime)
	m.where.Delete(idtab.ID(out.FlowID))

	if donorPos != -1 && len(donorImg.Rank) > 0 {
		// §5.2: the moved element "is deterministically added to either
		// the head (if S' is to the left of S) or to the tail (if S' is
		// to the right of S) of S.Rank-Sublist" — the fixed placement is
		// what preserves FIFO order among equal ranks.
		var moved Word
		if donorLeft {
			moved = donorImg.Rank[len(donorImg.Rank)-1]
			donorImg.Rank = donorImg.Rank[:len(donorImg.Rank)-1]
			m.removeElig(&donorImg, moved.SendTime)
			m.insertHead(&img, moved)
		} else {
			moved = donorImg.Rank[0]
			copy(donorImg.Rank, donorImg.Rank[1:])
			donorImg.Rank = donorImg.Rank[:len(donorImg.Rank)-1]
			m.removeElig(&donorImg, moved.SendTime)
			m.insertTail(&img, moved)
		}
		m.where.Set(idtab.ID(moved.FlowID), uint32(sID)+1)
	}

	// Cycle 4: write back, refresh metadata, retire empties.
	m.cycle++
	m.mem.BeginCycle(m.cycle)
	m.mem.Write(sID, img)
	m.refresh(pos, img)
	if donorPos != -1 {
		m.mem.Write(m.rf.Entries[donorPos].SublistID, donorImg)
		m.refresh(donorPos, donorImg)
	}
	m.size--

	// Retire in right-to-left order so positions stay valid.
	if donorPos != -1 && donorPos > pos && len(donorImg.Rank) == 0 {
		m.retire(donorPos)
	}
	if len(img.Rank) == 0 {
		m.retire(pos)
	}
	if donorPos != -1 && donorPos < pos && len(donorImg.Rank) == 0 {
		m.retire(donorPos)
	}
	return out, true
}

// insertWord places w at its rank position (after equal ranks — the
// structural FIFO tie-break) and its send time into the eligibility
// order, using the sublist comparator bank and encoder.
func (m *Machine) insertWord(img *SublistImage, w Word) {
	bits := m.subCmp.Compare(len(img.Rank), func(i int) bool {
		return img.Rank[i].Rank > w.Rank
	})
	idx := m.subEnc.Encode(bits)
	if idx == -1 {
		idx = len(img.Rank)
	}
	img.Rank = append(img.Rank, Word{})
	copy(img.Rank[idx+1:], img.Rank[idx:])
	img.Rank[idx] = w

	ebits := m.subCmp.Compare(len(img.Elig), func(i int) bool {
		return img.Elig[i] > w.SendTime
	})
	eidx := m.subEnc.Encode(ebits)
	if eidx == -1 {
		eidx = len(img.Elig)
	}
	img.Elig = append(img.Elig, 0)
	copy(img.Elig[eidx+1:], img.Elig[eidx:])
	img.Elig[eidx] = w.SendTime
}

// insertHead places w at the head of the rank order (used for words
// migrating in from the left) and its send time into the eligibility
// order via compare + encode.
func (m *Machine) insertHead(img *SublistImage, w Word) {
	img.Rank = append(img.Rank, Word{})
	copy(img.Rank[1:], img.Rank)
	img.Rank[0] = w
	m.insertElig(img, w.SendTime)
}

// insertTail appends w to the rank order (words migrating in from the
// right) and its send time into the eligibility order.
func (m *Machine) insertTail(img *SublistImage, w Word) {
	img.Rank = append(img.Rank, w)
	m.insertElig(img, w.SendTime)
}

// insertElig places t into the eligibility order via compare + encode.
func (m *Machine) insertElig(img *SublistImage, t uint64) {
	ebits := m.subCmp.Compare(len(img.Elig), func(i int) bool {
		return img.Elig[i] > t
	})
	eidx := m.subEnc.Encode(ebits)
	if eidx == -1 {
		eidx = len(img.Elig)
	}
	img.Elig = append(img.Elig, 0)
	copy(img.Elig[eidx+1:], img.Elig[eidx:])
	img.Elig[eidx] = t
}

// removeElig deletes one occurrence of t from the eligibility order via
// an equality compare + encode.
func (m *Machine) removeElig(img *SublistImage, t uint64) {
	bits := m.subCmp.Compare(len(img.Elig), func(i int) bool {
		return img.Elig[i] == t
	})
	idx := m.subEnc.Encode(bits)
	if idx == -1 {
		panic(fmt.Sprintf("hwsim: eligibility sublist lost send time %d", t))
	}
	copy(img.Elig[idx:], img.Elig[idx+1:])
	img.Elig = img.Elig[:len(img.Elig)-1]
}

// refresh updates the pointer entry at pos from a staged image.
func (m *Machine) refresh(pos int, img SublistImage) {
	e := &m.rf.Entries[pos]
	e.Num = len(img.Rank)
	if len(img.Rank) == 0 {
		e.SmallestRank = 0
		e.SmallestSendTime = NeverTime
		return
	}
	e.SmallestRank = img.Rank[0].Rank
	e.SmallestSendTime = img.Elig[0]
}

// retire shifts an emptied sublist to the head of the empty partition.
func (m *Machine) retire(pos int) {
	m.rf.RemoveAt(pos, m.active-1)
	m.active--
}

// Snapshot returns the Global-Ordered-List by stitching the active
// sublists in pointer order (testing/diagnostics; reads via Peek so no
// ports are consumed).
func (m *Machine) Snapshot() []Word {
	out := make([]Word, 0, m.size)
	for i := 0; i < m.active; i++ {
		img := m.mem.Peek(m.rf.Entries[i].SublistID)
		out = append(out, img.Rank...)
	}
	return out
}

// CheckInvariants validates the machine's structure: partitioning,
// Invariant 1, global rank order, metadata and eligibility coherence,
// and flow-state consistency.
func (m *Machine) CheckInvariants() error {
	total := 0
	var prevRank uint64
	for i, e := range m.rf.Entries {
		img := m.mem.Peek(e.SublistID)
		if i < m.active {
			if len(img.Rank) == 0 {
				return fmt.Errorf("active position %d empty", i)
			}
		} else if len(img.Rank) != 0 {
			return fmt.Errorf("empty-partition position %d holds %d words", i, len(img.Rank))
		}
		if e.Num != len(img.Rank) {
			return fmt.Errorf("position %d num=%d want %d", i, e.Num, len(img.Rank))
		}
		if i+1 < m.active {
			next := m.mem.Peek(m.rf.Entries[i+1].SublistID)
			if len(img.Rank) < m.sublistSize && len(next.Rank) < m.sublistSize {
				return fmt.Errorf("Invariant 1 violated at %d,%d", i, i+1)
			}
		}
		if len(img.Rank) == 0 {
			continue
		}
		if e.SmallestRank != img.Rank[0].Rank || e.SmallestSendTime != img.Elig[0] {
			return fmt.Errorf("position %d metadata stale", i)
		}
		if len(img.Elig) != len(img.Rank) {
			return fmt.Errorf("position %d eligibility size mismatch", i)
		}
		for j, w := range img.Rank {
			if (total > 0 || j > 0) && w.Rank < prevRank {
				return fmt.Errorf("global rank order violated at position %d index %d", i, j)
			}
			prevRank = w.Rank
			if v, ok := m.where.Get(idtab.ID(w.FlowID)); !ok || int(v)-1 != e.SublistID {
				return fmt.Errorf("flow state wrong for %d", w.FlowID)
			}
			total++
		}
		for j := 1; j < len(img.Elig); j++ {
			if img.Elig[j-1] > img.Elig[j] {
				return fmt.Errorf("eligibility sublist unsorted at position %d", i)
			}
		}
	}
	if total != m.size {
		return fmt.Errorf("size=%d stored=%d", m.size, total)
	}
	return nil
}
