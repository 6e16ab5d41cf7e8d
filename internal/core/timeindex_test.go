package core_test

import (
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel"
)

// The list's time index is its own metadata — sorted Eligibility-Sublists,
// smallest_send_time per pointer-array entry, one summary word per 32
// entries — and three queries read it: MinSendTime, NextWakeAfter and the
// "nothing eligible" verdict of every dequeue and peek. The tests below
// drive the list through splits, refills and retires with rank
// uncorrelated with send_time, and after every operation compare all
// three with brute force over the reference model at instants below,
// among and above the resident send_times.

// timeIndexSend maps a program byte to a send_time: the two sentinels,
// or one of 224 distinct finite instants in [200, 1529].
func timeIndexSend(b byte) clock.Time {
	switch b % 16 {
	case 0:
		return clock.Always
	case 1:
		return clock.Never
	}
	return clock.Time(b%16)*100 + clock.Time(b>>4)*2
}

// timeIndexNow maps a program byte to a query instant: the extremes, or
// a point in [0, 1771] — below every finite send_time, between them (odd
// values fall between neighbours, even ones may hit a resident exactly),
// or above them all.
func timeIndexNow(b byte) clock.Time {
	switch b {
	case 255:
		return clock.Never
	case 254:
		return clock.Never - 1
	}
	return clock.Time(b) * 7
}

// runTimeIndexProgram interprets program as list operations on a list of
// the given geometry and checks the time index against the reference
// model after every step.
func runTimeIndexProgram(t *testing.T, capacity, sublistSize int, program []byte) {
	t.Helper()
	impl := core.NewWithSublistSize(capacity, sublistSize)
	ref := refmodel.New(capacity)
	nextID := uint32(0)

	i := 0
	arg := func() byte {
		if i < len(program) {
			b := program[i]
			i++
			return b
		}
		return 0
	}
	someID := func() uint32 {
		if nextID == 0 {
			return 0
		}
		return (uint32(arg())<<8 | uint32(arg())) % nextID
	}
	// The opcode mix follows occupancy with hysteresis — mostly enqueues
	// until the list is nine tenths full, mostly removals until it is a
	// tenth full — so any long program sweeps the list between nearly
	// empty and nearly full instead of hovering at one end.
	growing := true
	for i < len(program) {
		switch n := impl.Len() * 10; {
		case n >= 9*capacity:
			growing = false
		case n <= capacity:
			growing = true
		}
		enqueues := 3 // opcodes out of 16
		if growing {
			enqueues = 10
		}
		op := int(arg() % 16)
		if op < enqueues {
			op = 0
		} else {
			op = 1 + (op-enqueues)%5
		}
		switch op {
		case 0: // enqueue(rank, send)
			e := core.Entry{ID: nextID, Rank: uint64(arg() % 32), SendTime: timeIndexSend(arg())}
			nextID++
			if got, want := impl.Enqueue(e), ref.Enqueue(e); got != want {
				t.Fatalf("Enqueue(%v) = %v, ref %v", e, got, want)
			}
		case 1: // dequeue(now)
			now := timeIndexNow(arg())
			got, gok := impl.Dequeue(now)
			want, wok := ref.Dequeue(now)
			if gok != wok || got != want {
				t.Fatalf("Dequeue(%v) = %v,%v, ref %v,%v", now, got, gok, want, wok)
			}
		case 2: // dequeue(flow)
			id := someID()
			got, gok := impl.DequeueFlow(id)
			want, wok := ref.DequeueFlow(id)
			if gok != wok || got != want {
				t.Fatalf("DequeueFlow(%d) = %v,%v, ref %v,%v", id, got, gok, want, wok)
			}
		case 3: // dequeue range
			now := timeIndexNow(arg())
			lo := someID()
			hi := lo + uint32(arg())
			got, gok := impl.DequeueRange(now, lo, hi)
			want, wok := ref.DequeueRange(now, lo, hi)
			if gok != wok || got != want {
				t.Fatalf("DequeueRange(%v,%d,%d) = %v,%v, ref %v,%v", now, lo, hi, got, gok, want, wok)
			}
		case 4: // update rank and send_time in place
			id := someID()
			rank, send := uint64(arg()%32), timeIndexSend(arg())
			got := impl.UpdateRank(id, rank, send)
			want := ref.UpdateRank(id, rank, send)
			if got != want {
				t.Fatalf("UpdateRank(%d) = %v, ref %v", id, got, want)
			}
		case 5: // evict the push-out victim
			got, gok := impl.MaxRankEntry()
			want, wok := ref.PeekMax()
			if gok != wok || got != want {
				t.Fatalf("MaxRankEntry = %v,%v, ref PeekMax %v,%v", got, gok, want, wok)
			}
			if gok {
				got, _ = impl.DequeueFlow(got.ID)
				if want, _ = ref.EvictMax(); got != want {
					t.Fatalf("evicted %v, ref EvictMax %v", got, want)
				}
			}
		}

		if err := impl.CheckInvariants(); err != nil {
			t.Fatalf("after op %d: %v", op, err)
		}
		gotMin, gotOK := impl.MinSendTime()
		wantMin, wantOK := ref.MinSendTime()
		if gotOK != wantOK || (gotOK && gotMin != wantMin) {
			t.Fatalf("MinSendTime = %v,%v, ref %v,%v", gotMin, gotOK, wantMin, wantOK)
		}
		snap := ref.Snapshot()
		for _, now := range [...]clock.Time{0, timeIndexNow(arg()), clock.Never - 1, clock.Never} {
			if got, want := impl.NextWakeAfter(now), ref.NextWakeAfter(now); got != want {
				t.Fatalf("NextWakeAfter(%v) = %v, ref %v (len %d)", now, got, want, len(snap))
			}
			got, gok := impl.Peek(now)
			want, wok := ref.Peek(now)
			if gok != wok || got != want {
				t.Fatalf("Peek(%v) = %v,%v, ref %v,%v", now, got, gok, want, wok)
			}
			lo := uint32(len(snap))
			_, gok = impl.PeekRange(now, lo, lo+16)
			wok = false
			for _, e := range snap {
				if e.SendTime <= now && e.ID >= lo && e.ID <= lo+16 {
					wok = true
					break
				}
			}
			if gok != wok {
				t.Fatalf("PeekRange(%v,%d,%d) hit=%v, brute force %v", now, lo, lo+16, gok, wok)
			}
		}
	}
}

// FuzzCoreTimeIndex runs fuzzer-chosen programs on a list small enough
// (128 entries, sublists of 3, up to 88 pointer-array positions) that a
// short program crosses summary-block boundaries. Open-ended with
// `go test -fuzz=FuzzCoreTimeIndex ./internal/core`; the seed corpus
// runs under plain `go test`.
func FuzzCoreTimeIndex(f *testing.F) {
	// While growing, opcodes 0-9 enqueue and 10-15 are dequeue, flow,
	// range, update, evict, dequeue; every step ends with a query byte.
	f.Add([]byte{0, 5, 0x32, 9, 0, 7, 0x11, 40, 10, 60, 0, 1, 2, 0x10, 255})
	f.Add([]byte{1, 3, 1, 0, 1, 3, 0, 0, 15, 255, 9, 3, 0, 9, 7, 254})
	f.Add([]byte{2, 9, 0x45, 1, 2, 8, 0x46, 2, 2, 7, 0x47, 3, 13, 0, 1, 2, 0x91, 80, 12, 90, 0, 0, 4, 70, 14, 60, 11, 0, 0, 50})
	sweep := make([]byte, 0, 800)
	for k := 0; k < 120; k++ { // past 32 active sublists and nine tenths full
		sweep = append(sweep, 0, byte(k*7), byte(k*13+2), byte(k*3))
	}
	for k := 0; k < 100; k++ { // now draining: 3 and 8 dequeue, 7 evicts
		sweep = append(sweep, byte(3+k%2*5), 253, byte(k*5), 7, byte(k*11))
	}
	f.Add(sweep)

	f.Fuzz(func(t *testing.T, program []byte) {
		runTimeIndexProgram(t, 128, 3, program)
	})
}

// TestTimeIndexDifferential is the seeded counterpart: random programs
// long enough to fill and drain a list with ~200 sublists (seven summary
// blocks) several times over, so block skipping, cross-block
// pointer-array shifts and straddling sublists all occur with the list
// both nearly empty and nearly full.
func TestTimeIndexDifferential(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		program := make([]byte, 24000)
		rand.New(rand.NewSource(seed)).Read(program)
		runTimeIndexProgram(t, 320, 3, program)
	}
}
