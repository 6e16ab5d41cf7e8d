package hwsim

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
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
	c0 := m.Cycle()
	m.Enqueue(Word{1, 5, 0})
	if got := m.Cycle() - c0; got != 4 {
		t.Fatalf("enqueue took %d cycles, want 4", got)
	}
	c0 = m.Cycle()
	m.Dequeue(0)
	if got := m.Cycle() - c0; got != 4 {
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

// runDifferentialVsCore drives the structural machine and the functional
// model with the same operations and demands identical outputs,
// including tie-breaks, and the same §5.2 cost op by op: cycles, SRAM
// reads and SRAM writes.
func runDifferentialVsCore(t *testing.T, seed int64, capacity, steps, rankSpace, timeSpace int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hw := New(capacity)
	fn := core.New(capacity)
	nextID := uint32(0)

	for step := 0; step < steps; step++ {
		hwBefore, fnBefore := hw.Stats(), fn.Stats()
		var op string
		switch rng.Intn(3) {
		case 0:
			w := Word{FlowID: nextID, Rank: uint64(rng.Intn(rankSpace)), SendTime: uint64(rng.Intn(timeSpace))}
			nextID++
			op = fmt.Sprintf("Enqueue(%v)", w)
			hwErr := hw.Enqueue(w)
			fnErr := fn.Enqueue(core.Entry{ID: w.FlowID, Rank: w.Rank, SendTime: clock.Time(w.SendTime)})
			if (hwErr == nil) != (fnErr == nil) {
				t.Fatalf("seed %d step %d: enqueue err %v vs %v", seed, step, hwErr, fnErr)
			}
		case 1:
			now := uint64(rng.Intn(timeSpace))
			op = fmt.Sprintf("Dequeue(%d)", now)
			hwW, hwOK := hw.Dequeue(now)
			fnE, fnOK := fn.Dequeue(clock.Time(now))
			if hwOK != fnOK || (hwOK && (hwW.FlowID != fnE.ID || hwW.Rank != fnE.Rank)) {
				t.Fatalf("seed %d step %d: Dequeue(%d) = %v,%v vs %v,%v", seed, step, now, hwW, hwOK, fnE, fnOK)
			}
		case 2:
			var id uint32
			if nextID > 0 {
				id = uint32(rng.Intn(int(nextID)))
			}
			op = fmt.Sprintf("DequeueFlow(%d)", id)
			hwW, hwOK := hw.DequeueFlow(id)
			fnE, fnOK := fn.DequeueFlow(id)
			if hwOK != fnOK || (hwOK && hwW.FlowID != fnE.ID) {
				t.Fatalf("seed %d step %d: DequeueFlow(%d) = %v,%v vs %v,%v", seed, step, id, hwW, hwOK, fnE, fnOK)
			}
		}
		hs, fs := hw.Stats(), fn.Stats()
		hwCost := [3]uint64{hs.Cycles - hwBefore.Cycles, hs.SRAMReads - hwBefore.SRAMReads, hs.SRAMWrites - hwBefore.SRAMWrites}
		fnCost := [3]uint64{fs.Cycles - fnBefore.Cycles, fs.SublistReads - fnBefore.SublistReads, fs.SublistWrites - fnBefore.SublistWrites}
		if hwCost != fnCost {
			t.Fatalf("seed %d step %d: %s costs cycles/reads/writes %v on the machine, %v in core", seed, step, op, hwCost, fnCost)
		}
		if hw.Len() != fn.Len() {
			t.Fatalf("seed %d step %d: Len %d vs %d", seed, step, hw.Len(), fn.Len())
		}
		if err := hw.CheckInvariants(); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
	}
	hwSnap := hw.Snapshot()
	fnSnap := fn.Snapshot()
	for i := range hwSnap {
		if hwSnap[i].FlowID != fnSnap[i].ID || hwSnap[i].Rank != fnSnap[i].Rank {
			t.Fatalf("seed %d: snapshot[%d] %v vs %v", seed, i, hwSnap[i], fnSnap[i])
		}
	}
}

func TestDifferentialVsCoreSmall(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		runDifferentialVsCore(t, seed, 9, 2500, 8, 8)
	}
}

func TestDifferentialVsCoreTies(t *testing.T) {
	// Two distinct ranks: heavy structural-FIFO pressure.
	for seed := int64(50); seed < 60; seed++ {
		runDifferentialVsCore(t, seed, 32, 3000, 2, 4)
	}
}

func TestDifferentialVsCoreMedium(t *testing.T) {
	for seed := int64(100); seed < 105; seed++ {
		runDifferentialVsCore(t, seed, 256, 5000, 1<<16, 64)
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
