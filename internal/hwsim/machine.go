package hwsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"pieo/internal/idtab"
)

// Machine is the elaborated PIEO scheduler datapath: register file +
// comparator banks + priority encoders + dual-port SRAM, executing each
// primitive operation as the §5.2 four-phase micro-program. Like
// internal/core it stores NO insertion sequence numbers: the paper's FIFO
// tie-break among equal ranks emerges purely from insert-after-equals
// placement and stable sublist positions — structural in both models,
// which the differential tests drive side by side.
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

// Stats summarizes component activity.
type Stats struct {
	Cycles         uint64
	SRAMReads      uint64
	SRAMWrites     uint64
	PtrComparators uint64
	SubComparators uint64
	SubEncodes     uint64
}

// Stats returns the accumulated component counters.
func (m *Machine) Stats() Stats {
	return Stats{
		Cycles:         m.cycle,
		SRAMReads:      m.mem.Reads,
		SRAMWrites:     m.mem.Writes,
		PtrComparators: m.ptrCmp.Activations,
		SubComparators: m.subCmp.Activations,
		SubEncodes:     m.subEnc.Activations,
	}
}

// fullImg reports whether the image holds a complete sublist.
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
		if j == -1 {
			j = m.active
		}
		pos = max(j-1, 0)
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
	m.put(&m.rf.Entries[pos], &img, -1, w)
	m.where.Insert(idtab.ID(w.FlowID), uint32(sID)+1)
	if wasFull {
		// §5.2: "the tail element in S.Rank-Sublist will be moved to the
		// head of S'.Rank-Sublist" — deterministic head placement keeps
		// equal-rank words in their original (FIFO) order.
		tail := m.take(&img, len(img.Rank)-1)
		m.put(&m.rf.Entries[spPos], &spImg, 0, tail)
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

// Dequeue runs the §5.2 dequeue micro-program at the given time: the
// ranged dequeue over the whole ID space, where every resident is in
// range and so no sublist read can miss.
func (m *Machine) Dequeue(now uint64) (Word, bool) {
	return m.DequeueRange(now, 0, math.MaxUint32)
}

// DequeueRange runs the §4.2 ranged dequeue: the smallest-ranked word
// eligible at now whose flow ID lies in [lo, hi]. Cycle 1's select adds
// the second conjunct to the time filter on the pointer array's
// resident-ID bounds. The bounds are conservative — removals never narrow
// them — so a selected sublist can hold no eligible in-range word. Such a
// read is a miss: it costs one more cycle and one more read, sets the
// sublist's bounds exact (the read saw every resident), and the select
// goes on to the next candidate.
func (m *Machine) DequeueRange(now uint64, lo, hi uint32) (Word, bool) {
	// Cycle 1: first sublist passing both conjuncts.
	m.cycle++
	for from := 0; ; {
		bits := m.ptrCmp.Compare(m.active, func(i int) bool {
			e := &m.rf.Entries[i]
			return i >= from && now >= e.SmallestSendTime && e.IDLo <= hi && e.IDHi >= lo
		})
		pos := m.ptrEnc.Encode(bits)
		if pos == -1 {
			return Word{}, false
		}
		w, ok := m.extract(pos, func(w Word) bool { return w.SendTime <= now && w.FlowID >= lo && w.FlowID <= hi })
		if ok {
			return w, true
		}
		from = pos + 1
	}
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
	w, ok := m.extract(pos, func(w Word) bool { return w.FlowID == id })
	if !ok {
		panic(fmt.Sprintf("hwsim: flow state points flow %d at sublist %d but it is not there", id, sID))
	}
	return w, true
}

// UpdateRank re-ranks the queued flow id: dequeue(f) followed by an
// enqueue of the same flow with the new rank and send time (§3.1), eight
// cycles in all. ok is false when id is not queued.
func (m *Machine) UpdateRank(id uint32, rank, sendTime uint64) bool {
	w, ok := m.DequeueFlow(id)
	if !ok {
		return false
	}
	w.Rank, w.SendTime = rank, sendTime
	if err := m.Enqueue(w); err != nil {
		panic("hwsim: UpdateRank re-enqueue failed: " + err.Error())
	}
	return true
}

// PeekMax returns the push-out victim: the tail word of the last active
// sublist, which holds the largest rank and, among equal ranks, the
// newest arrival. The read takes no SRAM port and no cycle — core's
// MaxRankEntry charges nothing either; a design would keep the word in a
// register beside the pointer array.
func (m *Machine) PeekMax() (Word, bool) {
	if m.active == 0 {
		return Word{}, false
	}
	img := m.mem.Peek(m.rf.Entries[m.active-1].SublistID)
	return img.Rank[len(img.Rank)-1], true
}

// EvictMax extracts PeekMax's word through dequeue(f).
func (m *Machine) EvictMax() (Word, bool) {
	w, ok := m.PeekMax()
	if !ok {
		return Word{}, false
	}
	return m.DequeueFlow(w.FlowID)
}

// extract performs cycles 2–4 of any dequeue variant: read S (plus a
// non-full donor neighbor when S is full), remove the first word that
// matches, refill to preserve Invariant 1, write back, and retire
// emptied sublists. The sublist compare runs on S as it leaves the SRAM,
// so a miss — no word matches — is known in the read cycle: extract then
// sets S's resident-ID bounds exact, changes nothing else and returns
// false after that one cycle and one read (a ranged dequeue's miss).
func (m *Machine) extract(pos int, match func(Word) bool) (Word, bool) {
	// Cycle 2: reads.
	m.cycle++
	m.mem.BeginCycle(m.cycle)
	sID := m.rf.Entries[pos].SublistID
	img := m.mem.Read(sID)
	idx := m.firstSet(len(img.Rank), func(i int) bool { return match(img.Rank[i]) })
	if idx == len(img.Rank) {
		e := &m.rf.Entries[pos]
		e.clearIDs()
		for _, w := range img.Rank {
			e.admit(w.FlowID)
		}
		return Word{}, false
	}
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

	// Cycle 3: mutation of the staged images.
	m.cycle++
	out := m.take(&img, idx)
	m.where.Delete(idtab.ID(out.FlowID))

	if donorPos != -1 && len(donorImg.Rank) > 0 {
		// §5.2: the moved element "is deterministically added to either
		// the head (if S' is to the left of S) or to the tail (if S' is
		// to the right of S) of S.Rank-Sublist" — the fixed placement is
		// what preserves FIFO order among equal ranks.
		from, to := 0, len(img.Rank)
		if donorLeft {
			from, to = len(donorImg.Rank)-1, 0
		}
		moved := m.take(&donorImg, from)
		m.put(&m.rf.Entries[pos], &img, to, moved)
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

// put places w at rank-order index idx of img — at its rank position,
// after every equal rank (the structural FIFO tie-break), when idx is -1;
// an Invariant-1 move knows its index — and its send time into the
// eligibility order, searching with the sublist comparator bank and
// encoder. It widens e's resident-ID bounds to cover w.
func (m *Machine) put(e *PointerEntry, img *SublistImage, idx int, w Word) {
	if idx == -1 {
		idx = m.firstSet(len(img.Rank), func(i int) bool { return img.Rank[i].Rank > w.Rank })
	}
	img.Rank = slices.Insert(img.Rank, idx, w)
	eidx := m.firstSet(len(img.Elig), func(i int) bool { return img.Elig[i] > w.SendTime })
	img.Elig = slices.Insert(img.Elig, eidx, w.SendTime)
	e.admit(w.FlowID)
}

// firstSet fires n sublist comparators with pred and returns the first
// lane set, or n when none is.
func (m *Machine) firstSet(n int, pred func(lane int) bool) int {
	if i := m.subEnc.Encode(m.subCmp.Compare(n, pred)); i != -1 {
		return i
	}
	return n
}

// take removes the word at rank-order index idx of img, and one copy of
// its send time from the eligibility order (an equality compare + encode).
func (m *Machine) take(img *SublistImage, idx int) Word {
	w := img.Rank[idx]
	img.Rank = slices.Delete(img.Rank, idx, idx+1)
	eidx := m.firstSet(len(img.Elig), func(i int) bool { return img.Elig[i] == w.SendTime })
	if eidx == len(img.Elig) {
		panic(fmt.Sprintf("hwsim: eligibility sublist lost send time %d", w.SendTime))
	}
	img.Elig = slices.Delete(img.Elig, eidx, eidx+1)
	return w
}

// refresh updates the pointer entry at pos from a staged image.
func (m *Machine) refresh(pos int, img SublistImage) {
	e := &m.rf.Entries[pos]
	e.Num = len(img.Rank)
	if len(img.Rank) == 0 {
		e.SmallestRank = 0
		e.SmallestSendTime = NeverTime
		e.clearIDs()
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

// SublistView is one active sublist as the datapath holds it: its
// pointer-array register, whether it is full, and its Rank-Sublist image.
type SublistView struct {
	PointerEntry
	Full  bool
	Words []Word // rank order
}

// Sublists returns the active partition of the pointer array in order,
// each register with its sublist's words (tracing; reads via Peek so no
// ports are consumed).
func (m *Machine) Sublists() []SublistView {
	out := make([]SublistView, m.active)
	for i, e := range m.rf.Entries[:m.active] {
		img := m.mem.Peek(e.SublistID)
		out[i] = SublistView{PointerEntry: e, Full: m.fullImg(img), Words: img.Rank}
	}
	return out
}

// CheckInvariants validates the machine's structure: partitioning,
// Invariant 1, global rank order, metadata and eligibility coherence
// (resident-ID bounds covering every resident, cleared on every empty
// sublist), and flow-state consistency.
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
		} else if e.IDLo != math.MaxUint32 || e.IDHi != 0 {
			return fmt.Errorf("empty-partition position %d keeps id bounds [%d,%d]", i, e.IDLo, e.IDHi)
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
			if w.FlowID < e.IDLo || w.FlowID > e.IDHi {
				return fmt.Errorf("position %d id bounds [%d,%d] miss resident %d", i, e.IDLo, e.IDHi, w.FlowID)
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
