package core_test

import (
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/refmodel"
)

// FuzzListOps interprets the fuzzer's byte stream as a program of list
// operations and checks the sublist implementation against the flat
// reference model plus the full invariant suite after every step — once
// on the paper's geometry and once on sublists of 2, where nearly every
// step spills or refills (in both directions) and reuses a freed slot. Run
// with `go test -fuzz=FuzzListOps ./internal/core` for open-ended
// fuzzing; under plain `go test` the seed corpus below runs as a
// regression test.
func FuzzListOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 1})
	f.Add([]byte{0, 10, 1, 0, 0, 20, 1, 0, 2, 10, 3, 5})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 0, 1, 2, 3})
	f.Add([]byte{5, 3, 1, 10, 2, 11, 3, 3, 12, 1, 6, 0, 2})
	f.Add([]byte{5, 4, 4, 5, 0, 8, 6, 12, 2, 4, 6, 0, 4, 13, 2, 0})

	f.Fuzz(func(t *testing.T, program []byte) {
		const capacity = 24
		runListProgram(t, core.New(capacity), refmodel.New(capacity), program)
		runListProgram(t, core.NewWithSublistSize(capacity, 2), refmodel.New(capacity), program)
	})
}

// runListProgram interprets program against impl and ref; each step
// consumes up to 3 bytes: opcode, then operands.
func runListProgram(t *testing.T, impl *core.List, ref *refmodel.List, program []byte) {
	t.Helper()
	nextID := uint32(0)

	for i := 0; i < len(program); {
		op := program[i]
		i++
		arg := func() byte {
			if i < len(program) {
				b := program[i]
				i++
				return b
			}
			return 0
		}
		switch op % 7 {
		case 0: // enqueue(rank, send)
			e := core.Entry{ID: nextID, Rank: uint64(arg() % 16), SendTime: clock.Time(arg() % 8)}
			nextID++
			if got, want := impl.Enqueue(e), ref.Enqueue(e); got != want {
				t.Fatalf("Enqueue(%v) = %v, ref %v", e, got, want)
			}
		case 1: // dequeue(now)
			now := clock.Time(arg() % 8)
			got, gok := impl.Dequeue(now)
			want, wok := ref.Dequeue(now)
			if gok != wok || got != want {
				t.Fatalf("Dequeue(%v) = %v,%v, ref %v,%v", now, got, gok, want, wok)
			}
		case 2: // dequeue(flow)
			var id uint32
			if nextID > 0 {
				id = uint32(arg()) % nextID
			}
			got, gok := impl.DequeueFlow(id)
			want, wok := ref.DequeueFlow(id)
			if gok != wok || got != want {
				t.Fatalf("DequeueFlow(%d) = %v,%v, ref %v,%v", id, got, gok, want, wok)
			}
		case 3: // dequeue range
			now := clock.Time(arg() % 8)
			lo := uint32(arg() % 16)
			got, gok := impl.DequeueRange(now, lo, lo+8)
			want, wok := ref.DequeueRange(now, lo, lo+8)
			if gok != wok || got != want {
				t.Fatalf("DequeueRange(%v,%d) = %v,%v, ref %v,%v", now, lo, got, gok, want, wok)
			}
		case 4: // rank-range dequeue vs brute force over the snapshot
			lo := uint64(arg() % 16)
			var want *core.Entry
			for _, e := range impl.Snapshot() {
				if e.Rank >= lo && e.Rank <= lo+4 {
					e := e
					want = &e
					break
				}
			}
			got, gok := impl.DequeueRankRange(lo, lo+4)
			if want == nil {
				if gok {
					t.Fatalf("DequeueRankRange(%d) = %v, want none", lo, got)
				}
			} else {
				if !gok || got != *want {
					t.Fatalf("DequeueRankRange(%d) = %v,%v, want %v", lo, got, gok, *want)
				}
				if _, wok := ref.DequeueFlow(got.ID); !wok {
					t.Fatalf("reference lost flow %d", got.ID)
				}
			}
		case 5: // batch enqueue(count, then rank/send pairs)
			es := make([]core.Entry, int(arg()%5)+1)
			for j := range es {
				id := nextID
				b := arg()
				if nextID > 0 && b%4 == 0 {
					id = uint32(b) % nextID // provoke mid-batch duplicates
				} else {
					nextID++
				}
				es[j] = core.Entry{ID: id, Rank: uint64(arg() % 16), SendTime: clock.Time(arg() % 8)}
			}
			gotN, gotErr := impl.EnqueueBatch(es)
			wantN := 0
			var wantErr error
			for _, e := range es {
				if err := ref.Enqueue(e); err != nil {
					if wantErr == nil {
						wantErr = err
					}
					continue
				}
				wantN++
			}
			if gotN != wantN || gotErr != wantErr {
				t.Fatalf("EnqueueBatch(%v) = %d,%v, ref %d,%v", es, gotN, gotErr, wantN, wantErr)
			}
		case 6: // batch dequeue(now, k)
			now := clock.Time(arg() % 8)
			k := int(arg()%5) + 1
			got := impl.DequeueUpTo(now, k, nil)
			want := make([]core.Entry, 0, k)
			for len(want) < k {
				e, ok := ref.Dequeue(now)
				if !ok {
					break
				}
				want = append(want, e)
			}
			if len(got) != len(want) {
				t.Fatalf("DequeueUpTo(%v,%d) returned %d entries, ref %d", now, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("DequeueUpTo(%v,%d)[%d] = %v, ref %v", now, k, j, got[j], want[j])
				}
			}
		}
		if impl.Len() != ref.Len() {
			t.Fatalf("Len = %d, ref %d", impl.Len(), ref.Len())
		}
		if err := impl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
