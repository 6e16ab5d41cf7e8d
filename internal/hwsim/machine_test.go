package hwsim

import (
	"reflect"
	"testing"
)

func TestEmptyMachine(t *testing.T) {
	m := New(16)
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, ok := m.Dequeue(100); ok {
		t.Fatal("dequeue from empty succeeded")
	}
	if _, ok := m.DequeueFlow(1); ok {
		t.Fatal("dequeue(f) from empty succeeded")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicOrdering(t *testing.T) {
	m := New(16)
	for _, w := range []Word{{1, 30, 0}, {2, 10, 0}, {3, 20, 0}} {
		if err := m.Enqueue(w); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint32{2, 3, 1}
	for _, id := range want {
		w, ok := m.Dequeue(0)
		if !ok || w.FlowID != id {
			t.Fatalf("Dequeue = %v,%v, want flow %d", w, ok, id)
		}
	}
}

func TestEligibilityFilter(t *testing.T) {
	m := New(16)
	m.Enqueue(Word{1, 10, 500}) // best rank, not yet eligible
	m.Enqueue(Word{2, 20, 0})
	w, ok := m.Dequeue(100)
	if !ok || w.FlowID != 2 {
		t.Fatalf("Dequeue(100) = %v, want flow 2", w)
	}
	if _, ok := m.Dequeue(100); ok {
		t.Fatal("ineligible element dequeued")
	}
	w, ok = m.Dequeue(500)
	if !ok || w.FlowID != 1 {
		t.Fatalf("Dequeue(500) = %v, want flow 1", w)
	}
}

func TestFourCyclesPerOp(t *testing.T) {
	m := New(64)
	c0 := m.Stats().Cycles
	m.Enqueue(Word{1, 5, 0})
	if got := m.Stats().Cycles - c0; got != 4 {
		t.Fatalf("enqueue took %d cycles, want 4", got)
	}
	c0 = m.Stats().Cycles
	m.Dequeue(0)
	if got := m.Stats().Cycles - c0; got != 4 {
		t.Fatalf("dequeue took %d cycles, want 4", got)
	}
}

func TestDuplicateAndCapacity(t *testing.T) {
	m := New(4)
	for i := uint32(0); i < 4; i++ {
		if err := m.Enqueue(Word{i, uint64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Enqueue(Word{9, 9, 0}); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	m.Dequeue(0)
	if err := m.Enqueue(Word{1, 1, 0}); err != ErrDuplicate {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestPortDisciplinePanics(t *testing.T) {
	mem := NewDualPortSRAM(4)
	mem.BeginCycle(1)
	mem.Read(0)
	mem.Read(1)
	defer func() {
		if recover() == nil {
			t.Fatal("third same-cycle access did not panic")
		}
	}()
	mem.Read(2)
}

func TestPortDisciplineResetsPerCycle(t *testing.T) {
	mem := NewDualPortSRAM(4)
	mem.BeginCycle(1)
	mem.Read(0)
	mem.Write(1, SublistImage{})
	mem.BeginCycle(2)
	mem.Read(2)
	mem.Write(3, SublistImage{})
	if mem.Reads != 2 || mem.Writes != 2 {
		t.Fatalf("reads/writes = %d/%d", mem.Reads, mem.Writes)
	}
}

func TestEncoderAndBankBounds(t *testing.T) {
	enc := NewPriorityEncoder(4)
	if got := enc.Encode([]bool{false, true, true}); got != 1 {
		t.Fatalf("Encode = %d", got)
	}
	if got := enc.Encode([]bool{false, false}); got != -1 {
		t.Fatalf("Encode = %d, want -1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized encode did not panic")
		}
	}()
	enc.Encode(make([]bool, 5))
}

func TestRegisterFileRotations(t *testing.T) {
	rf := NewRegisterFile(4) // ids 0,1,2,3
	rf.InsertAt(1, 3)        // id 3 moves to position 1
	wantOrder := []int{0, 3, 1, 2}
	for i, w := range wantOrder {
		if rf.Entries[i].SublistID != w {
			t.Fatalf("after InsertAt: %v", rf.Entries)
		}
	}
	rf.RemoveAt(1, 3) // id 3 back to the tail
	for i, w := range []int{0, 1, 2, 3} {
		if rf.Entries[i].SublistID != w {
			t.Fatalf("after RemoveAt: %v", rf.Entries)
		}
	}
	if rf.Shifts != 4 {
		t.Fatalf("Shifts = %d, want 4", rf.Shifts)
	}
}

// TestStructuralFIFOTieBreak: equal ranks dequeue in enqueue order with
// no sequence numbers stored anywhere — the tie-break is structural.
func TestStructuralFIFOTieBreak(t *testing.T) {
	m := New(64)
	for i := uint32(0); i < 30; i++ {
		if err := m.Enqueue(Word{i, 7, 0}); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 30; i++ {
		w, ok := m.Dequeue(0)
		if !ok || w.FlowID != i {
			t.Fatalf("Dequeue = %v,%v, want flow %d (structural FIFO)", w, ok, i)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := New(256)
	for i := uint32(0); i < 200; i++ {
		m.Enqueue(Word{i, uint64(i * 7 % 64), 0})
	}
	for i := 0; i < 100; i++ {
		m.Dequeue(0)
	}
	s := m.Stats()
	if s.Cycles != 4*300 {
		t.Fatalf("Cycles = %d, want 1200", s.Cycles)
	}
	if s.SRAMReads == 0 || s.SRAMWrites == 0 || s.PtrComparators == 0 || s.SubEncodes == 0 {
		t.Fatalf("counters not accumulating: %+v", s)
	}
	// The machine-wide guarantee: SRAM traffic never exceeds two
	// accesses per op per phase = 4 per op.
	ops := uint64(300)
	if s.SRAMReads+s.SRAMWrites > 4*ops {
		t.Fatalf("SRAM accesses %d exceed 4/op", s.SRAMReads+s.SRAMWrites)
	}
}

func TestSublistView(t *testing.T) {
	m := New(16)
	m.Enqueue(Word{1, 10, 5})
	m.Enqueue(Word{2, 20, NeverTime})
	want := SublistView{PointerEntry: PointerEntry{SmallestRank: 10, SmallestSendTime: 5, Num: 2, IDLo: 1, IDHi: 2}, Words: []Word{{1, 10, 5}, {2, 20, NeverTime}}}
	if v := m.Sublists(); len(v) != 1 || !reflect.DeepEqual(v[0], want) {
		t.Fatalf("Sublists = %+v, want [%+v]", v, want)
	}
	if s := m.Stats(); s.SRAMReads != 2 || s.Cycles != 8 {
		t.Fatalf("viewing cost something: %+v", s)
	}
}

func TestSublistViewCoversAllWords(t *testing.T) {
	m := New(64)
	for i := uint32(0); i < 50; i++ {
		m.Enqueue(Word{i, uint64(i * 7 % 32), 0})
	}
	total := 0
	for _, v := range m.Sublists() {
		if total += len(v.Words); v.Num != len(v.Words) || v.Full != (v.Num == 8) {
			t.Fatalf("view num/full mismatch: %+v", v)
		}
	}
	if total != 50 {
		t.Fatalf("view covers %d words, want 50", total)
	}
}
