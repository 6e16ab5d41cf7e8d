package hwsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pieo/internal/refmodel/conform"
)

// Property: for any short conformance program on a 12-entry list with
// eight ranks and four send times, the structural machine and the
// functional model agree op by op in outputs, tie-breaks and §5.2 cost,
// and the machine's invariants hold throughout. quick-check draws each
// program's seed and length; the lockstep checker runs it.
func TestMachineMatchesCoreProperty(t *testing.T) {
	sh := conform.Shape{Capacity: 12, RankBits: 3, TimeBits: 2}
	f := func(seed int64, steps uint8) bool {
		runLockstep(t, seeded(sh, seed, seed+1, 1+int(steps)%100)...)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(20))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: every operation costs exactly 4 cycles (successful or not,
// minus the 1-cycle failed-select path) and at most 4 SRAM accesses.
func TestMachineCycleBudgetProperty(t *testing.T) {
	f := func(ranks []uint8) bool {
		m := New(16)
		for i, r := range ranks {
			if i >= 16 {
				break
			}
			before := m.Stats().Cycles
			memBefore := m.Stats().SRAMReads + m.Stats().SRAMWrites
			if err := m.Enqueue(Word{FlowID: uint32(i), Rank: uint64(r)}); err != nil {
				return false
			}
			if m.Stats().Cycles-before != 4 {
				return false
			}
			if m.Stats().SRAMReads+m.Stats().SRAMWrites-memBefore > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
