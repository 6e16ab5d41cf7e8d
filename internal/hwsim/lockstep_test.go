package hwsim

import (
	"fmt"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel/conform"
)

// lockstep is a core list and a machine of the same capacity, both at
// S = ⌈√N⌉, driven side by side as one conformance backend: every list
// operation runs on both and must give the same answer at the same cost
// in cycles, SRAM reads and SRAM writes. The queries answer from the core
// list, which the suite holds to the reference model, and so the machine
// is held to it through core. A divergence panics; the suite reports the
// panic with its step. lockstep has no batch path, so conform's batches
// reach it as the per-operation loops they are defined to be.
type lockstep struct {
	backend.Backend // the core list
	l               *core.List
	m               *Machine
	misses          uint64 // ranged sublist reads that found nothing
}

// answer is one operation's result, comparable with ==.
type answer struct {
	e  core.Entry
	ok any
}

// same runs one operation on core, then on the machine, and panics
// unless both answer the same at the same cost. It returns the answer.
func (s *lockstep) same(onCore, onMachine func() answer, format string, args ...any) answer {
	cb, mb := s.l.Stats(), s.m.Stats()
	want, got := onCore(), onMachine()
	ca, ma := s.l.Stats(), s.m.Stats()
	c := [3]uint64{ca.Cycles - cb.Cycles, ca.SublistReads - cb.SublistReads, ca.SublistWrites - cb.SublistWrites}
	m := [3]uint64{ma.Cycles - mb.Cycles, ma.SRAMReads - mb.SRAMReads, ma.SRAMWrites - mb.SRAMWrites}
	if got != want || m != c {
		panic(fmt.Sprintf("%s = %+v costing cycles/reads/writes %v on the machine, %+v costing %v in core",
			fmt.Sprintf(format, args...), got, m, want, c))
	}
	return want
}

func entry(w Word) core.Entry {
	return core.Entry{ID: w.FlowID, Rank: w.Rank, SendTime: clock.Time(w.SendTime)}
}

// extract runs an extraction on both models.
func (s *lockstep) extract(onCore func() (core.Entry, bool), onMachine func() (Word, bool), format string, args ...any) (core.Entry, bool) {
	a := s.same(func() answer { e, ok := onCore(); return answer{e, ok} },
		func() answer { w, ok := onMachine(); return answer{entry(w), ok} }, format, args...)
	return a.e, a.ok.(bool)
}

func (s *lockstep) Enqueue(e core.Entry) error {
	a := s.same(func() answer { return answer{ok: s.l.Enqueue(e)} }, func() answer {
		err := s.m.Enqueue(Word{FlowID: e.ID, Rank: e.Rank, SendTime: uint64(e.SendTime)})
		return answer{ok: map[error]error{ErrFull: core.ErrFull, ErrDuplicate: core.ErrDuplicate, nil: nil}[err]}
	}, "Enqueue(%v)", e)
	err, _ := a.ok.(error)
	return err
}

func (s *lockstep) Dequeue(now clock.Time) (core.Entry, bool) {
	return s.extract(func() (core.Entry, bool) { return s.l.Dequeue(now) },
		func() (Word, bool) { return s.m.Dequeue(uint64(now)) }, "Dequeue(%v)", now)
}

// DequeueRange also counts the reads that missed: the cycles past the
// four of a hit or the one of a failed select.
func (s *lockstep) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	before := s.m.Stats().Cycles
	e, ok := s.extract(func() (core.Entry, bool) { return s.l.DequeueRange(now, lo, hi) },
		func() (Word, bool) { return s.m.DequeueRange(uint64(now), lo, hi) }, "DequeueRange(%v, %d, %d)", now, lo, hi)
	spent := s.m.Stats().Cycles - before
	if ok {
		spent -= 3 // a hit takes four cycles, a failed select one
	}
	s.misses += spent - 1
	return e, ok
}

func (s *lockstep) DequeueFlow(id uint32) (core.Entry, bool) {
	return s.extract(func() (core.Entry, bool) { return s.l.DequeueFlow(id) },
		func() (Word, bool) { return s.m.DequeueFlow(id) }, "DequeueFlow(%d)", id)
}

func (s *lockstep) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	a := s.same(func() answer { return answer{ok: s.l.UpdateRank(id, rank, sendTime)} },
		func() answer { return answer{ok: s.m.UpdateRank(id, rank, uint64(sendTime))} }, "UpdateRank(%d, %d, %v)", id, rank, sendTime)
	return a.ok.(bool)
}

func (s *lockstep) PeekMax() (core.Entry, bool) {
	return s.extract(s.l.MaxRankEntry, s.m.PeekMax, "PeekMax")
}

func (s *lockstep) EvictMax() (core.Entry, bool) {
	return s.extract(s.Backend.EvictMax, s.m.EvictMax, "EvictMax")
}

// CheckInvariants checks both structures and that they hold the same
// words in the same order.
func (s *lockstep) CheckInvariants() error {
	if err := s.l.CheckInvariants(); err != nil {
		return err
	}
	if err := s.m.CheckInvariants(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	// Walk the machine's images in place: a copy of every sublist after
	// every operation would cost the large programs most of their time.
	want := s.l.Snapshot()
	k := 0
	for _, e := range s.m.rf.Entries[:s.m.active] {
		for _, w := range s.m.mem.images[e.SublistID].Rank {
			if k == len(want) || entry(w) != want[k] {
				return fmt.Errorf("machine word %d is %v, core holds %v", k, entry(w), want)
			}
			k++
		}
	}
	if k != len(want) {
		return fmt.Errorf("machine holds %d words, core %v", k, want)
	}
	return nil
}

// runLockstep replays each program on a lockstep pair against the
// reference model and returns the ranged reads that missed.
func runLockstep(t *testing.T, programs ...[]byte) (misses uint64) {
	t.Helper()
	for _, p := range programs {
		var s *lockstep
		conform.Run(t, func(n int) backend.Backend {
			l := core.New(n)
			s = &lockstep{Backend: backend.WrapCore(l), l: l, m: New(n)}
			return s
		}, p)
		misses += s.misses
	}
	return misses
}

// seeded returns the programs of about steps operations each, seeded
// from [lo, hi), with one arrival in seventeen never eligible — the
// programs of internal/core's TestDifferential* tests.
func seeded(sh conform.Shape, lo, hi int64, steps int) (ps [][]byte) {
	sh.NeverOdds = 17
	for seed := lo; seed < hi; seed++ {
		ps = append(ps, sh.Seeded(seed, 7*steps))
	}
	return ps
}

func TestDifferentialVsCoreSmall(t *testing.T) {
	// Tiny capacity: constant full/empty sublist edge cases.
	runLockstep(t, seeded(conform.Shape{Capacity: 9, RankBits: 3, TimeBits: 3}, 0, 8, 3000)...)
}

func TestDifferentialVsCoreTies(t *testing.T) {
	// One rank bit: heavy structural-FIFO pressure.
	runLockstep(t, seeded(conform.Shape{Capacity: 64, RankBits: 1, TimeBits: 2}, 100, 104, 4000)...)
}

func TestDifferentialVsCoreMedium(t *testing.T) {
	runLockstep(t, seeded(conform.Shape{Capacity: 256, RankBits: 16, TimeBits: 6}, 200, 201, 6000)...)
	// One instant: every finite send_time is 0.
	runLockstep(t, seeded(conform.Shape{Capacity: 128, RankBits: 12}, 300, 301, 4000)...)
}

func TestDifferentialVsCoreLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large lockstep run")
	}
	runLockstep(t, seeded(conform.Shape{Capacity: 4096, RankBits: 16, TimeBits: 8}, 7, 8, 30000)...)
}

// TestDifferentialVsCoreRanged runs the ranged layouts of internal/core's
// TestRangedDifferentialLayouts: eight bands of IDs, gutted bands, and
// ranged dequeues over band runs and arbitrary ranges. Removals leave
// bounds wider than what remains, so ranged reads miss and tighten them;
// each layout must show such misses, or the test lost its premise.
func TestDifferentialVsCoreRanged(t *testing.T) {
	for _, ly := range []conform.Layout{conform.Banded, conform.Anti, conform.Random} {
		sh := conform.Shape{Capacity: 256, RankBits: 16, TimeBits: 3, Layout: ly}
		if misses := runLockstep(t, sh.Seeded(0, 24000)); misses == 0 {
			t.Errorf("%s: no ranged read missed", ly)
		}
	}
}
