package hwsim

import (
	"testing"

	"pieo/internal/core"
)

// TestShapeFields pins Shape(16, 4) field by field: 2·⌈16/4⌉ + 2 = 10
// sublists of 4 words, 5 lanes, and a pointer entry of a 4-bit sublist
// id, 16-bit smallest rank and send_time, a 3-bit count (0…4) and two
// 16-bit ID bounds.
func TestShapeFields(t *testing.T) {
	want := Counts{
		Capacity:    16,
		SublistSize: 4,
		Sublists:    10,
		Lanes:       5,
		Entry:       EntryBits{SublistID: 4, SmallestRank: 16, SmallestSendTime: 16, Num: 3, IDBounds: 32},
		WordBits:    64,
	}
	if got := Shape(16, 4); got != want {
		t.Fatalf("Shape(16, 4) = %+v, want %+v", got, want)
	}
	if got := want.Entry.Total(); got != 71 {
		t.Fatalf("entry width = %d, want 71", got)
	}
	if got := SublistSize(16); got != 4 {
		t.Fatalf("SublistSize(16) = %d, want 4", got)
	}
}

// TestShapeMatchesMachineAndCore ties the three descriptions of the
// datapath together: the components New(n) allocates are Shape(n, ⌈√n⌉)'s
// counts, and core.NewWithSublistSize(n, s) binds Shape(n, s)'s sublists.
// The sizes are the fig8–fig10 sweep, the ablation's sublist sizes at
// N = 4096, and small n.
func TestShapeMatchesMachineAndCore(t *testing.T) {
	type size struct{ n, s int }
	var sizes []size
	for _, n := range []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 30000, 1 << 15} {
		sizes = append(sizes, size{n, SublistSize(n)})
	}
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, size{n, SublistSize(n)})
	}
	for s := 8; s <= 512; s *= 2 {
		sizes = append(sizes, size{4096, s})
	}
	for _, z := range sizes {
		c := Shape(z.n, z.s)
		if l := core.NewWithSublistSize(z.n, z.s); l.NumSublists() != c.Sublists || l.SublistSize() != c.SublistSize {
			t.Errorf("n=%d s=%d: core binds %d sublists of %d, Shape counts %d of %d",
				z.n, z.s, l.NumSublists(), l.SublistSize(), c.Sublists, c.SublistSize)
		}
		if z.s != SublistSize(z.n) {
			continue
		}
		m := New(z.n)
		got := [...]int{m.sublistSize, len(m.rf.Entries), len(m.mem.images), m.ptrCmp.Width, m.ptrEnc.Width, m.subCmp.Width, m.subEnc.Width}
		want := [...]int{c.SublistSize, c.Sublists, c.Sublists, c.Sublists, c.Sublists, c.Lanes, c.Lanes}
		if got != want {
			t.Errorf("n=%d: New builds (S, entries, SRAM sublists, pointer bank, pointer encoder, lane bank, lane encoder) = %v, Shape counts %v",
				z.n, got, want)
		}
	}
}
