package idtab

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// diff drives a Table and a Go map — the index the table replaces at
// every site — through the same operations and fails on the first
// difference in any result.
type diff[V comparable] struct {
	tb  testing.TB
	tab Table[ID, V]
	ref map[ID]V
}

func newDiff[V comparable](tb testing.TB, hint int) *diff[V] {
	return &diff[V]{tb: tb, tab: New[ID, V](hint), ref: map[ID]V{}}
}

// insert is Insert: the fused duplicate check + insert of the list's
// Enqueue.
func (d *diff[V]) insert(k ID, v V) {
	d.tb.Helper()
	_, dup := d.ref[k]
	if got := d.tab.Insert(k, v); got == dup {
		d.tb.Fatalf("Insert(%d): inserted=%v with the key present=%v", k, got, dup)
	}
	if !dup {
		d.ref[k] = v
	}
	d.agree(k)
}

// set overwrites a present key and inserts an absent one.
func (d *diff[V]) set(k ID, v V) {
	d.tb.Helper()
	if _, ok := d.ref[k]; ok {
		d.tab.Set(k, v)
		d.ref[k] = v
		d.agree(k)
		return
	}
	d.insert(k, v)
}

// getOrInsert is the scheduler's Flow(id): look k up, and insert v for
// it on first use.
func (d *diff[V]) getOrInsert(k ID, v V) {
	d.tb.Helper()
	d.agree(k)
	if _, ok := d.ref[k]; !ok {
		d.insert(k, v)
	}
}

// remove deletes a key, present or not.
func (d *diff[V]) remove(k ID) {
	d.tb.Helper()
	_, was := d.ref[k]
	if got := d.tab.Delete(k); got != was {
		d.tb.Fatalf("Delete(%d) = %v, want %v", k, got, was)
	}
	delete(d.ref, k)
	d.agree(k)
}

func (d *diff[V]) agree(k ID) {
	d.tb.Helper()
	want, wantOK := d.ref[k]
	if got, ok := d.tab.Get(k); ok != wantOK || got != want {
		d.tb.Fatalf("Get(%d) = (%v,%v), want (%v,%v)", k, got, ok, want, wantOK)
	}
	if d.tab.Len() != len(d.ref) {
		d.tb.Fatalf("table counts %d keys, reference holds %d", d.tab.Len(), len(d.ref))
	}
}

// audit is the full comparison: the table's own structure, and every
// reference key resolving (the counts already agree, so the table holds
// nothing else).
func (d *diff[V]) audit() {
	d.tb.Helper()
	if err := d.tab.Check(); err != nil {
		d.tb.Fatal(err)
	}
	for k := range d.ref {
		d.agree(k)
	}
}

// anyKey returns a resident key (map order: arbitrary, which is all a
// victim choice needs).
func (d *diff[V]) anyKey() (ID, bool) {
	for k := range d.ref {
		return k, true
	}
	return 0, false
}

// sid is a sublist-shaped value: never zero.
func sid(i int) uint32 { return uint32(i) + 1 }

// A slot is its key and value side by side: emptiness costs no flag.
func TestSlotIsKeyAndValue(t *testing.T) {
	if got := unsafe.Sizeof(slot[ID, uint32]{}); got != 8 {
		t.Fatalf("slot[ID, uint32] must be 8 bytes (eight per cache line): got %d", got)
	}
	if got := unsafe.Sizeof(slot[ID, *int]{}); got != 16 {
		t.Fatalf("slot[ID, *int] must be 16 bytes: got %d", got)
	}
}

// TestFreshIDs is list_hold's key stream: IDs increase forever and are
// never reused, residents leave in arbitrary order, occupancy holds at
// the hint. Without tombstones the table must end where a freshly built
// one holding the same keys would: no longer probes, same size.
func TestFreshIDs(t *testing.T) {
	const resident = 1 << 10
	d := newDiff[uint32](t, resident)
	rng := rand.New(rand.NewSource(1))
	next := ID(0)
	for ; next < resident; next++ {
		d.insert(next, sid(rng.Intn(64)))
	}
	slots := d.tab.Slots()
	for i := 0; i < 200*resident; i++ {
		victim := next - 1 - ID(rng.Intn(resident*2)) // mostly present, sometimes long gone
		if rng.Intn(4) == 0 {
			victim, _ = d.anyKey()
		}
		if _, ok := d.ref[victim]; ok {
			d.remove(victim)
			d.insert(next, sid(rng.Intn(64)))
			next++
		} else {
			d.remove(victim) // delete-absent
		}
		if i%4096 == 0 {
			d.audit()
		}
	}
	d.audit()
	if d.tab.Slots() != slots {
		t.Fatalf("table grew from %d to %d slots at constant occupancy", slots, d.tab.Slots())
	}
	fresh := New[ID, uint32](resident)
	for k, v := range d.ref {
		fresh.Insert(k, v)
	}
	_, got := d.tab.Probes()
	_, want := fresh.Probes()
	if got > want+8 {
		t.Fatalf("longest probe %d after %d fresh keys, %d in a freshly built table", got, next, want)
	}
}

// TestRecycledIDs is paced_sparse's key stream: a dense ID space in
// which every key is deleted and re-inserted over and over, with
// duplicate inserts, overwrites and deletes of absent keys mixed in.
func TestRecycledIDs(t *testing.T) {
	const ids = 1 << 10
	d := newDiff[uint32](t, ids)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400*ids; i++ {
		k := ID(rng.Intn(ids))
		switch rng.Intn(4) {
		case 0:
			d.insert(k, sid(rng.Intn(1<<20)))
		case 1:
			d.set(k, sid(rng.Intn(1<<20)))
		default:
			d.remove(k)
		}
		if i%4096 == 0 {
			d.audit()
		}
	}
	d.audit()
}

// inverse64 returns the inverse of odd a modulo 2^64 (Newton's
// iteration doubles the correct low bits each round).
func inverse64(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// TestAdversarialStrides fills tables with arithmetic progressions
// chosen against a multiplicative hash: power-of-two strides (IDs that
// differ only in high bits, e.g. a flow index shifted into a tenant
// field), and multiples of the multiplier's inverse, which a single-word
// multiplicative hash maps to consecutive small products — one home slot
// for all of them. No key may end up more than a handful of slots from
// its home.
func TestAdversarialStrides(t *testing.T) {
	const mul uint64 = flowHashMul
	inv := inverse64(mul)
	if inv*mul != 1 {
		t.Fatal("inverse64 is wrong")
	}
	strides := map[string]uint32{
		"1":                       1,
		"2^12":                    1 << 12,
		"2^20":                    1 << 20,
		"inverse mod 2^64, low":   uint32(inv),
		"inverse mod 2^64, high":  uint32(inv >> 32),
		"inverse of the low word": uint32(inverse64(mul & 0xFFFFFFFF)),
	}
	const maxProbe = 8 // slots past the home slot
	for name, stride := range strides {
		for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
			if uint64(stride)*uint64(n) > 1<<32 && stride%2 == 0 {
				continue // an even stride wraps onto its own keys
			}
			d := newDiff[uint32](t, n)
			for k := 0; k < n; k++ {
				d.insert(ID(uint32(k)*stride), sid(k))
			}
			d.audit()
			if _, got := d.tab.Probes(); got-1 > maxProbe {
				t.Errorf("stride %s, %d keys: longest probe %d slots past home, want <= %d", name, n, got-1, maxProbe)
			}
			// Delete every other key, then the rest: the backward shifts
			// run through whatever clusters the stride built.
			for k := 0; k < n; k += 2 {
				d.remove(ID(uint32(k) * stride))
			}
			d.audit()
			for k := 1; k < n; k += 2 {
				d.remove(ID(uint32(k) * stride))
			}
			d.audit()
		}
	}
}

// TestWrappingClusters builds probe clusters that run off the end of the
// slot array and continue at slot 0, then deletes from them in every
// order: the backward shift must carry keys across the wrap and must not
// pull a key in front of its own home slot.
func TestWrappingClusters(t *testing.T) {
	const hint = 16 // 32 slots
	probe := New[ID, uint32](hint)
	last := uint(probe.Slots() - 1)
	// Keys grouped by home slot, for the last three and first two slots.
	byHome := map[uint][]ID{}
	for k := ID(0); len(byHome[last]) < 3 || len(byHome[last-1]) < 3 || len(byHome[last-2]) < 2 || len(byHome[0]) < 2 || len(byHome[1]) < 2; k++ {
		if h := probe.home(k); h >= last-2 || h <= 1 {
			byHome[h] = append(byHome[h], k)
		}
	}
	var keys []ID
	for _, h := range []uint{last - 2, last - 1, last, 0, 1} {
		keys = append(keys, byHome[h][:2]...)
	}
	keys = append(keys, byHome[last][2], byHome[last-1][2])

	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 2000; round++ {
		d := newDiff[uint32](t, hint)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for i, k := range keys {
			d.insert(k, sid(i))
		}
		if round == 0 {
			wrapped := false
			for i, s := range d.tab.slots[:4] {
				if s.val != 0 && d.tab.home(s.key) > uint(i) {
					wrapped = true
				}
			}
			if !wrapped {
				t.Fatal("test keys built no cluster that wraps the slot array")
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			d.remove(k)
			d.audit()
		}
	}
}

// TestGrowth fills a table far past its hint: it must double as often
// as it takes, keep every key, and keep the half-full bound.
func TestGrowth(t *testing.T) {
	d := newDiff[uint32](t, 4)
	first := d.tab.Slots()
	if first != 8 {
		t.Fatalf("a table for 4 keys starts at %d slots, want the minimum 8", first)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1<<14; i++ {
		d.set(ID(rng.Uint32()), sid(i))
		if i&(i-1) == 0 {
			d.audit()
		}
	}
	d.audit()
	if d.tab.Slots() <= first || 2*d.tab.Len() > d.tab.Slots() {
		t.Fatalf("%d keys in %d slots (started at %d)", d.tab.Len(), d.tab.Slots(), first)
	}
	for k := range d.ref {
		d.remove(k)
	}
	d.audit()
}

// flow stands in for the scheduler's *Flow: an insert-only pointer value
// handed out once per key.
type flow struct{ id ID }

// TestInsertOnlyPatterns is the scheduler's flow table: arbitrary sparse
// IDs from both ends of uint32 looked up and created on first use, the
// table growing from the minimum, every pointer staying what was first
// handed out.
func TestInsertOnlyPatterns(t *testing.T) {
	patterns := map[string]func(i int) ID{
		"dense":      func(i int) ID { return ID(i) },
		"top-down":   func(i int) ID { return ^ID(i) }, // 2^32-1, 2^32-2, ...
		"stride-2^8": func(i int) ID { return ID(i) << 8 },
		// Strides whose low bits are all zero: a hash that keeps low bits
		// puts every key in one slot.
		"stride-2^20": func(i int) ID { return ID(i) << 20 },
		"stride-2^24": func(i int) ID { return ID(i)<<24 | ID(i)>>8 },
		// Multiples of the 32-bit golden-ratio constant, which undo a
		// 32-bit Fibonacci hash; and of its modular inverse.
		"stride-phi32":     func(i int) ID { return ID(uint32(i) * 0x9E3779B9) },
		"stride-phi32-inv": func(i int) ID { return ID(uint32(i) * 0x144CBC89) },
		"both-ends": func(i int) ID {
			if i&1 == 0 {
				return ID(i)
			}
			return ^ID(i)
		},
	}
	for name, id := range patterns {
		d := newDiff[*flow](t, 0)
		const flows = 3900 // (flows+100)<<20 still fits 32 bits
		for i := 0; i < flows; i++ {
			d.getOrInsert(id(i), &flow{id(i)})
			d.getOrInsert(id(i/2), &flow{id(i / 2)}) // an old one again
			if i&(i-1) == 0 {
				d.audit()
			}
		}
		d.audit()
		if len(d.ref) != flows {
			t.Fatalf("%s: pattern repeats: %d distinct ids of %d", name, len(d.ref), flows)
		}
		for k, f := range d.ref {
			if f.id != k {
				t.Fatalf("%s: id %d holds the flow of id %d", name, k, f.id)
			}
		}
		// Absent keys next to present ones stay absent.
		for i := flows; i < flows+100; i++ {
			if f, ok := d.tab.Get(id(i)); ok || f != nil {
				t.Fatalf("%s: Get of absent id %d found %v", name, id(i), f)
			}
		}
		// A pattern that turned probing into a scan would show here.
		// Random keys at this load average 1.5 slots per lookup; the
		// worst stride above, the inverse of φ32, measures 3.5.
		if total, _ := d.tab.Probes(); float64(total)/flows > 8 {
			t.Errorf("%s: mean probe length %.2f over %d flows in %d slots", name, float64(total)/flows, flows, d.tab.Slots())
		}
	}
}

// TestInsertOnlyRandomIDs creates flows for random IDs, a third of them
// repeats of earlier ones.
func TestInsertOnlyRandomIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := newDiff[*flow](t, 0)
	var seen []ID
	for i := 0; i < 20000; i++ {
		k := ID(rng.Uint32())
		if len(seen) > 0 && rng.Intn(3) == 0 {
			k = seen[rng.Intn(len(seen))]
		}
		seen = append(seen, k)
		d.getOrInsert(k, &flow{k})
	}
	d.audit()
}

// Setting an absent key is a caller's lost track of its own state: the
// list's Invariant-1 moves only ever overwrite residents.
func TestSetAbsentPanics(t *testing.T) {
	tab := New[ID, uint32](0)
	tab.Insert(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Set of an absent key did not panic")
		}
	}()
	tab.Set(2, 1)
}

// TestCheckCatchesCorruption plants one defect per Check error in an
// otherwise sound table, so that a Check that never fails fails here.
func TestCheckCatchesCorruption(t *testing.T) {
	// occupy fills the first empty slot at or after i with a key and
	// counts it.
	occupy := func(tab *Table[ID, uint32], i int) {
		for ; tab.slots[i].val != 0; i = (i + 1) % len(tab.slots) {
		}
		tab.slots[i] = slot[ID, uint32]{key: ID(1000 + i), val: 1}
		tab.n++
	}
	cases := map[string]struct {
		plant func(tab *Table[ID, uint32])
		want  string
	}{
		"geometry": {func(tab *Table[ID, uint32]) { tab.shift++ }, "geometry"},
		"over half full": {func(tab *Table[ID, uint32]) {
			for 2*tab.n <= len(tab.slots) {
				occupy(tab, 0)
			}
		}, "over half full"},
		"all occupied": {func(tab *Table[ID, uint32]) {
			for i := range tab.slots {
				if tab.slots[i].val == 0 {
					occupy(tab, i)
				}
			}
			tab.n = 1 // as if only the counter had kept up
		}, "slots occupied"},
		"unreachable": {func(tab *Table[ID, uint32]) {
			// Move the one key two slots past its home: a lookup stops at
			// the empty slot between.
			h := tab.home(1)
			tab.slots[(h+2)%8], tab.slots[h] = tab.slots[h], slot[ID, uint32]{}
		}, "cut off from its home"},
		"count": {func(tab *Table[ID, uint32]) { tab.n++ }, "slots occupied"},
	}
	for name, c := range cases {
		tab := New[ID, uint32](0) // 8 slots
		tab.Insert(1, 1)
		if err := tab.Check(); err != nil {
			t.Fatal(err)
		}
		c.plant(&tab)
		err := tab.Check()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check() = %v, want an error mentioning %q", name, err, c.want)
		}
	}
}

// FuzzTable interprets the input as an operation stream over a small key
// space on tables that start at the minimum size, so collisions,
// wrapping clusters and growth all occur within a few dozen operations.
// Every stream runs on both value shapes — 4-byte sublist ids (the
// list's flow index) and pointers (the scheduler's flow table) — and
// each table is audited against a reference map after every operation.
//
// An operation is three bytes: kind, key, value. Kind bits 0-1 pick
// insert, set, delete or get-or-insert; bits 2-3 shift the key by 0, 8,
// 16 or 24 bits, so keys differ only in bits the hash must fold down;
// bit 4 complements it, counting down from 2^32-1.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 0, 1, 0})
	f.Add([]byte("\x00\x10\x01\x00\x20\x02\x00\x30\x03\x02\x10\x00\x01\x20\x07\x03\x20\x00"))
	f.Add([]byte{12, 0, 0, 12, 1, 0, 12, 2, 0, 12, 3, 0, 12, 4, 0, 14, 0, 0, 14, 2, 0})
	f.Add([]byte{3, 1, 0, 3, 2, 0, 3, 1, 0, 31, 255, 1, 31, 254, 2, 11, 7, 3})
	f.Add([]byte("\x03\x00\x00\x07\x00\x00\x0b\x00\x00\x0f\x00\x00\x03\x01\x00\x07\x01\x00\x0b\x01\x00\x0f\x01\x00"))
	f.Add([]byte{31, 255, 0, 31, 254, 0, 31, 253, 0, 19, 0, 0, 19, 1, 0, 19, 2, 0, 23, 9, 0, 27, 9, 0, 31, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sids := newDiff[uint32](t, 0)
		ptrs := newDiff[*flow](t, 0)
		var flows [256]flow
		for ; len(data) >= 3; data = data[3:] {
			k := ID(data[1]) << (8 * (data[0] >> 2 & 3))
			if data[0]&16 != 0 {
				k = ^k
			}
			s, p := sid(int(data[2])), &flows[data[2]]
			switch data[0] & 3 {
			case 0:
				sids.insert(k, s)
				ptrs.insert(k, p)
			case 1:
				sids.set(k, s)
				ptrs.set(k, p)
			case 2:
				sids.remove(k)
				ptrs.remove(k)
			default:
				sids.getOrInsert(k, s)
				ptrs.getOrInsert(k, p)
			}
			sids.audit()
			ptrs.audit()
		}
	})
}
