// Package conform is the one conformance suite of the backend.Backend
// contract: it replays a byte-coded program of §3.1 operations on an
// implementation and on its executable spec (internal/refmodel) and fails
// on the first answer, query or structural check that differs. Every list
// the repo keeps — core.List at any sublist size, SyncList and the
// fault-injection wrapper — is held to the same programs, so a defect in
// any of them shows up in one place.
//
// A program is a 6-byte header followed by operations. The header picks
// the shape (see Shape): capacity, rank space, time space, the share of
// never-eligible arrivals and how IDs relate to ranks. Each operation is
// an opcode byte and its operand bytes; a program that runs out of bytes
// reads zeros, so every byte string is a valid program and a fuzzer can
// mutate freely. The opcode mix follows occupancy with hysteresis —
// mostly arrivals until the list is nine tenths full, mostly removals
// until it is a tenth full — so a long program sweeps the list between
// nearly empty and nearly full instead of hovering at one end.
//
// After every operation the suite compares Len, MinSendTime and
// NextWakeAfter at {0, an instant the program picks, Never−1, Never}
// with the spec and runs CheckInvariants; after the last it compares
// Snapshot and Stats. Batches go through backend.EnqueueBatch and
// backend.DequeueUpTo, so a backend with a native batch path is checked
// on it. Core wraps a core.List so that the list's own selects outside
// the contract ride on every program, checked against the answers of
// the contract operations.
package conform

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel"
)

// Layout fixes how an arrival's ID relates to its rank. The ranged
// select skips sublists by their resident-ID bounds, and what that skips
// depends on this relation.
type Layout uint8

const (
	// Sequential gives every arrival a fresh ID, unrelated to its rank.
	Sequential Layout = iota
	// Banded draws IDs from eight bands and ranks each band's arrivals
	// in its own rank region, lowest band first: one band's residents
	// are contiguous in rank order, the logical-PIEO layout (§4.3).
	Banded
	// Anti is Banded with the regions in reverse band order.
	Anti
	// Random draws IDs from the eight bands with ranks unrelated to them.
	Random
	numLayouts
)

func (ly Layout) String() string {
	return [...]string{"sequential", "banded", "anti", "random"}[ly%numLayouts]
}

// Shape is what a program's header encodes.
type Shape struct {
	Capacity int   // list capacity, 1..4096
	RankBits uint8 // ranks are drawn from [0, 2^RankBits), at most 2^56
	TimeBits uint8 // finite send_times are drawn from [0, 2^TimeBits), at most 2^15
	// NeverOdds makes one arrival in NeverOdds never eligible; 0 for
	// none. The draw shares its low bits with the send_time, so an odd
	// value keeps every finite send_time reachable.
	NeverOdds uint8
	Layout    Layout // the ID↔rank relation
}

const (
	headerLen = 6
	maxCap    = 4096
	bands     = 8
	// bandSpan bounds the IDs one program issues, so Band can give each
	// of several concurrent programs its own ID range.
	bandSpan = 1 << 24
)

// Program returns sh's header followed by ops.
func (sh Shape) Program(ops ...byte) []byte {
	c := sh.Capacity - 1
	return append([]byte{byte(c >> 8), byte(c), sh.RankBits, sh.TimeBits, sh.NeverOdds, byte(sh.Layout)}, ops...)
}

// Seeded returns sh's header followed by n pseudo-random operation bytes
// drawn from seed.
func (sh Shape) Seeded(seed int64, n int) []byte {
	ops := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return sh.Program(ops...)
}

func decode(p []byte) (Shape, []byte, bool) {
	if len(p) < headerLen {
		return Shape{}, nil, false
	}
	return Shape{
		Capacity:  (int(p[0])<<8|int(p[1]))%maxCap + 1,
		RankBits:  p[2] % 57,
		TimeBits:  p[3] % 16,
		NeverOdds: p[4],
		Layout:    Layout(p[5]) % numLayouts,
	}, p[headerLen:], true
}

// Run replays program on a backend built by newBackend and on a fresh
// refmodel.List of the header's capacity, and fails t at the first
// divergence.
func Run(t testing.TB, newBackend func(capacity int) backend.Backend, program []byte) {
	t.Helper()
	if sh, _, ok := decode(program); ok {
		if err := Check(newBackend(sh.Capacity), refmodel.New(sh.Capacity), program); err != nil {
			t.Fatalf("%+v: %v", sh, err)
		}
	}
}

// Fuzz makes f's fuzz target Run over each of newBackends. Programs
// longer than 4 KiB are cut.
func Fuzz(f *testing.F, newBackends ...func(capacity int) backend.Backend) {
	f.Fuzz(func(t *testing.T, program []byte) {
		for _, newBackend := range newBackends {
			Run(t, newBackend, program[:min(len(program), 4096)])
		}
	})
}

// Check replays program on impl and spec, two empty backends of the
// header's capacity, and returns the first divergence. spec is usually a
// refmodel.List; a caller that wraps impl (a fault schedule, say) wraps
// the spec alike.
func Check(impl, spec backend.Backend, program []byte) error {
	return replay(impl, spec, program, 0, false)
}

// Band replays program's band-local operations on b, shifted into the ID
// range [base, base+2^24), against a private spec, and returns the spec's
// final contents. Every operation touches only that range — a plain or
// batch dequeue becomes one ranged dequeue over it, an eviction a flow
// dequeue of the spec's victim — and arrivals stop
// at the header's capacity, so programs on disjoint ranges commute and
// each answer is exact whatever other goroutines do to b meanwhile, as
// long as b's capacity covers every program's. Only the answers and
// CheckInvariants are compared: the list-wide queries belong to no band.
func Band(b backend.Backend, base uint32, program []byte) ([]core.Entry, error) {
	sh, _, _ := decode(program)
	spec := refmodel.New(sh.Capacity)
	err := replay(b, spec, program, base, true)
	return spec.Snapshot(), err
}

type runner struct {
	impl, spec backend.Backend
	sh         Shape
	ops        []byte
	i          int
	base       uint32
	band       bool
	width      uint32 // IDs per band
	nextID     uint32 // Sequential: the next fresh ID, relative to base
	growing    bool
	step       int
	what       string // the operation in progress, for error messages
	args       []any
}

// replay runs program; one without a whole header is empty.
func replay(impl, spec backend.Backend, program []byte, base uint32, band bool) error {
	sh, ops, ok := decode(program)
	if !ok {
		return nil
	}
	r := &runner{impl: impl, spec: spec, sh: sh, ops: ops, base: base, band: band,
		width: uint32(max(1, (sh.Capacity+bands-1)/bands)), growing: true}
	return r.run()
}

func (r *runner) arg() byte {
	if r.i < len(r.ops) {
		b := r.ops[r.i]
		r.i++
		return b
	}
	return 0
}

func (r *runner) arg16() uint64 { return uint64(r.arg())<<8 | uint64(r.arg()) }

// idLimit bounds the program's relative IDs: one past the last fresh ID,
// or one past the eight bands.
func (r *runner) idLimit() uint32 {
	if r.sh.Layout == Sequential {
		return r.nextID + 1
	}
	return bands*r.width + 1
}

// arrivalID is the ID of a new arrival: fresh under Sequential, else any
// ID of the eight bands, resident or not.
func (r *runner) arrivalID() uint32 {
	if r.sh.Layout == Sequential {
		r.nextID++
		return r.base + r.nextID - 1
	}
	return r.base + uint32(r.arg16())%(bands*r.width)
}

// someID is usually a resident of the spec, else any ID the program may
// have issued (most of those absent).
func (r *runner) someID() uint32 {
	sel, x := r.arg(), uint64(r.arg())
	if snap := r.spec.Snapshot(); len(snap) > 0 && sel%4 != 0 {
		return snap[(uint64(sel)<<8|x)%uint64(len(snap))].ID
	}
	return r.base + uint32((uint64(sel)<<8|x)%uint64(r.idLimit()))
}

// rank draws a rank for id under the layout: in [0, 2^RankBits), moved
// into the band's own region under Banded and Anti.
func (r *runner) rank(id uint32) uint64 {
	v, bits := r.arg16(), r.sh.RankBits
	if bits > 16 {
		v *= 0x9E3779B97F4A7C15 // spread two program bytes over the space
	}
	v &= 1<<bits - 1
	band := uint64((id - r.base) / r.width % bands)
	switch r.sh.Layout {
	case Banded:
		v |= band << bits
	case Anti:
		v |= (bands - 1 - band) << bits
	}
	return v
}

func (r *runner) sendTime() clock.Time {
	v := r.arg16()
	if r.sh.NeverOdds > 0 && v%uint64(r.sh.NeverOdds) == 0 {
		return clock.Never
	}
	return clock.Time(v & (1<<r.sh.TimeBits - 1))
}

// instant is a query instant below, among or above the finite
// send_times, or Never.
func (r *runner) instant() clock.Time {
	v := r.arg16()
	if v == 0xffff {
		return clock.Never
	}
	span := uint64(1) << r.sh.TimeBits
	return clock.Time(v % (span + span/4 + 1))
}

func (r *runner) entry(id uint32) core.Entry {
	return core.Entry{ID: id, Rank: r.rank(id), SendTime: r.sendTime()}
}

// bandRange is an ID range spanning whole bands.
func (r *runner) bandRange() (lo, hi uint32) {
	n := uint32(bands)
	if r.sh.Layout == Sequential {
		n = r.nextID/r.width + 1
	}
	first := uint32(r.arg()) % n
	lo = r.base + first*r.width
	return lo, lo + (1+uint32(r.arg())%(n-first))*r.width - 1
}

// at names the operation in progress for error messages; it is
// formatted only on a failure.
func (r *runner) at(format string, args ...any) { r.what, r.args = format, args }

func (r *runner) failf(format string, args ...any) error {
	return fmt.Errorf("step %d (%s): %s", r.step, fmt.Sprintf(r.what, r.args...), fmt.Sprintf(format, args...))
}

// same fails unless impl's answer equals the spec's.
func (r *runner) same(got, want any) error {
	if got != want {
		return r.failf("= %+v, spec %+v", got, want)
	}
	return nil
}

// duo holds two answers, so same can compare them at once.
type duo struct{ a, b any }

func pair(e core.Entry, ok bool) duo { return duo{e, ok} }

func (r *runner) run() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.failf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	for ; r.i < len(r.ops); r.step++ {
		if err := r.op(); err != nil {
			return err
		}
		if err := r.check(); err != nil {
			return err
		}
	}
	if r.band {
		return nil
	}
	r.at("Snapshot")
	if got, want := r.impl.Snapshot(), r.spec.Snapshot(); !slices.Equal(got, want) {
		return r.failf("= %+v, spec %+v", got, want)
	}
	r.at("Stats")
	return r.same(r.impl.Stats(), r.spec.Stats())
}

// Operations the opcode's high nibble selects when its low nibble does
// not pick an arrival.
const (
	opDequeue = iota
	opDequeueFlow
	opRangeBands
	opRangeAny
	opUpdateRank
	opEvict
	opDequeueUpTo
	opGut
	numRemovals
)

func (r *runner) op() error {
	switch n := r.spec.Len() * 10; {
	case n >= 9*r.sh.Capacity:
		r.growing = false
	case n <= r.sh.Capacity:
		r.growing = true
	}
	arrivals := byte(3) // low nibbles out of 16
	if r.growing {
		arrivals = 10
	}
	code := r.arg()
	if code%16 < arrivals {
		if code%16 == 0 {
			return r.enqueueBatch()
		}
		return r.enqueue()
	}
	whole := func(now clock.Time) error { return r.dequeueRange(now, r.base, r.base+bandSpan-1) }
	switch (code >> 4) % numRemovals {
	case opDequeue:
		now := r.instant()
		if r.band {
			return whole(now)
		}
		r.at("Dequeue(%v)", now)
		return r.same(pair(r.impl.Dequeue(now)), pair(r.spec.Dequeue(now)))
	case opDequeueFlow:
		return r.dequeueFlow(r.someID())
	case opRangeBands:
		now := r.instant()
		lo, hi := r.bandRange()
		return r.dequeueRange(now, lo, hi)
	case opRangeAny:
		now, lo := r.instant(), r.someID()
		return r.dequeueRange(now, lo, lo+uint32(r.arg()))
	case opUpdateRank:
		e := r.entry(r.someID())
		r.at("UpdateRank(%v)", e)
		return r.same(r.impl.UpdateRank(e.ID, e.Rank, e.SendTime), r.spec.UpdateRank(e.ID, e.Rank, e.SendTime))
	case opEvict:
		evict := r.arg()%2 == 1
		if r.band {
			if want, ok := r.spec.PeekMax(); ok && evict {
				return r.dequeueFlow(want.ID)
			}
			return nil
		}
		r.at("PeekMax")
		if err := r.same(pair(r.impl.PeekMax()), pair(r.spec.PeekMax())); err != nil || !evict {
			return err
		}
		r.at("EvictMax")
		return r.same(pair(r.impl.EvictMax()), pair(r.spec.EvictMax()))
	case opDequeueUpTo:
		now, k := r.instant(), int(r.arg()%6)+1
		if r.band {
			return whole(now)
		}
		r.at("DequeueUpTo(%v, %d)", now, k)
		if got, want := backend.DequeueUpTo(r.impl, now, k, nil), backend.DequeueUpTo(r.spec, now, k, nil); !slices.Equal(got, want) {
			return r.failf("= %+v, spec %+v", got, want)
		}
	case opGut:
		// Point-dequeue every resident of a band but one: the bounds of
		// the sublists they sat in stay as wide as they were.
		lo, _ := r.bandRange()
		keep := lo + uint32(r.arg())%r.width
		for _, e := range r.spec.Snapshot() {
			if e.ID >= lo && e.ID < lo+r.width && e.ID != keep {
				if err := r.dequeueFlow(e.ID); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (r *runner) enqueue() error {
	e := r.entry(r.arrivalID())
	if r.band && r.spec.Len() == r.sh.Capacity {
		return nil // a band program never meets ErrFull, which would depend on the others
	}
	r.at("Enqueue(%v)", e)
	return r.same(duo{r.impl.Contains(e.ID), r.impl.Enqueue(e)}, duo{r.spec.Contains(e.ID), r.spec.Enqueue(e)})
}

// enqueueBatch inserts one to six entries in one batch; a quarter of them
// reuse an ID the program has issued, so batches carry mid-batch
// duplicates.
func (r *runner) enqueueBatch() error {
	es := make([]core.Entry, r.arg()%6+1)
	if r.band {
		es = es[:min(len(es), r.sh.Capacity-r.spec.Len())]
	}
	for j := range es {
		if r.arg()%4 == 0 {
			es[j] = r.entry(r.someID())
		} else {
			es[j] = r.entry(r.arrivalID())
		}
	}
	r.at("EnqueueBatch(%v)", es)
	gotN, gotErr := backend.EnqueueBatch(r.impl, es)
	wantN, wantErr := backend.EnqueueBatch(r.spec, es)
	return r.same(duo{gotN, gotErr}, duo{wantN, wantErr})
}

func (r *runner) dequeueFlow(id uint32) error {
	r.at("Contains, DequeueFlow(%d)", id)
	return r.same(duo{r.impl.Contains(id), pair(r.impl.DequeueFlow(id))}, duo{r.spec.Contains(id), pair(r.spec.DequeueFlow(id))})
}

func (r *runner) dequeueRange(now clock.Time, lo, hi uint32) error {
	if r.band {
		hi = min(hi, r.base+bandSpan-1)
	}
	r.at("DequeueRange(%v, %d, %d)", now, lo, hi)
	return r.same(pair(r.impl.DequeueRange(now, lo, hi)), pair(r.spec.DequeueRange(now, lo, hi)))
}

// check runs the per-step comparisons; it consumes the instant it probes.
func (r *runner) check() error {
	now := r.instant()
	r.at("CheckInvariants")
	if err := r.impl.CheckInvariants(); err != nil {
		return r.failf("%v", err)
	}
	if r.band {
		return nil
	}
	type state struct {
		len      int
		min      clock.Time
		nonEmpty bool
		wake     [4]clock.Time // at 0, now, Never-1, Never
	}
	query := func(b backend.Backend) (s state) {
		s.len = b.Len()
		if s.min, s.nonEmpty = b.MinSendTime(); !s.nonEmpty {
			s.min = 0 // undefined on an empty list
		}
		for i, t := range [...]clock.Time{0, now, clock.Never - 1, clock.Never} {
			s.wake[i] = b.NextWakeAfter(t)
		}
		return s
	}
	r.at("Len, MinSendTime, NextWakeAfter at 0, %v, Never-1, Never", now)
	return r.same(query(r.impl), query(r.spec))
}
