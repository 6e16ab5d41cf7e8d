package core

import (
	"math/rand"
	"testing"
)

// flowDiff drives a flowTab and a map[uint32]int — the index the table
// replaced — through the same operations and fails on the first
// difference in any result.
type flowDiff struct {
	tb  testing.TB
	tab flowTab
	ref map[uint32]int
}

func newFlowDiff(tb testing.TB, hint int) *flowDiff {
	return &flowDiff{tb: tb, tab: newFlowTab(hint), ref: map[uint32]int{}}
}

// insert is Enqueue's fused duplicate check + insert.
func (d *flowDiff) insert(id uint32, sid int) {
	d.tb.Helper()
	_, dup := d.ref[id]
	if got := d.tab.insert(id, sid); got == dup {
		d.tb.Fatalf("insert(%d): inserted=%v with the key present=%v", id, got, dup)
	}
	if !dup {
		d.ref[id] = sid
	}
	d.agree(id)
}

// set overwrites a present key and inserts an absent one.
func (d *flowDiff) set(id uint32, sid int) {
	d.tb.Helper()
	if _, ok := d.ref[id]; ok {
		d.tab.move(id, sid)
		d.ref[id] = sid
		d.agree(id)
		return
	}
	d.insert(id, sid)
}

// remove deletes a key, present or not.
func (d *flowDiff) remove(id uint32) {
	d.tb.Helper()
	_, was := d.ref[id]
	if got := d.tab.remove(id); got != was {
		d.tb.Fatalf("remove(%d) = %v, want %v", id, got, was)
	}
	delete(d.ref, id)
	d.agree(id)
}

func (d *flowDiff) agree(id uint32) {
	d.tb.Helper()
	want, wantOK := d.ref[id]
	if got, ok := d.tab.lookup(id); ok != wantOK || (ok && got != want) {
		d.tb.Fatalf("lookup(%d) = (%d,%v), want (%d,%v)", id, got, ok, want, wantOK)
	}
	if d.tab.n != len(d.ref) {
		d.tb.Fatalf("table counts %d keys, reference holds %d", d.tab.n, len(d.ref))
	}
}

// audit is the full comparison: the table's own structure, and every
// reference key resolving (the counts already agree, so the table holds
// nothing else).
func (d *flowDiff) audit() {
	d.tb.Helper()
	if err := d.tab.check(); err != nil {
		d.tb.Fatal(err)
	}
	for id := range d.ref {
		d.agree(id)
	}
}

// anyKey returns a resident key (map order: arbitrary, which is all a
// victim choice needs).
func (d *flowDiff) anyKey() (uint32, bool) {
	for id := range d.ref {
		return id, true
	}
	return 0, false
}

// longestProbe is the largest distance of any key from its home slot.
func (t *flowTab) longestProbe() int {
	longest := 0
	for i, s := range t.slots {
		if s.sid != 0 {
			longest = max(longest, int((uint32(i)-t.home(s.id))&t.mask))
		}
	}
	return longest
}

// TestFlowTabFreshIDs is list_hold's key stream: IDs increase forever and
// are never reused, residents leave in arbitrary order, occupancy holds
// at the hint. Without tombstones the table must end where a freshly
// built one holding the same keys would: no longer probes, same count.
func TestFlowTabFreshIDs(t *testing.T) {
	const resident = 1 << 10
	d := newFlowDiff(t, resident)
	rng := rand.New(rand.NewSource(1))
	next := uint32(0)
	for ; next < resident; next++ {
		d.insert(next, rng.Intn(64))
	}
	slots := len(d.tab.slots)
	for i := 0; i < 200*resident; i++ {
		victim := next - 1 - uint32(rng.Intn(resident*2)) // mostly present, sometimes long gone
		if rng.Intn(4) == 0 {
			victim, _ = d.anyKey()
		}
		if _, ok := d.ref[victim]; ok {
			d.remove(victim)
			d.insert(next, rng.Intn(64))
			next++
		} else {
			d.remove(victim) // delete-absent
		}
		if i%4096 == 0 {
			d.audit()
		}
	}
	d.audit()
	if len(d.tab.slots) != slots {
		t.Fatalf("table grew from %d to %d slots at constant occupancy", slots, len(d.tab.slots))
	}
	fresh := newFlowTab(resident)
	for id, sid := range d.ref {
		fresh.insert(id, sid)
	}
	if got, want := d.tab.longestProbe(), fresh.longestProbe(); got > want+8 {
		t.Fatalf("longest probe %d after %d fresh keys, %d in a freshly built table", got, next, want)
	}
}

// TestFlowTabRecycledIDs is paced_sparse's key stream: a dense ID space
// in which every key is deleted and re-inserted over and over, with
// duplicate inserts, overwrites and deletes of absent keys mixed in.
func TestFlowTabRecycledIDs(t *testing.T) {
	const ids = 1 << 10
	d := newFlowDiff(t, ids)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400*ids; i++ {
		id := uint32(rng.Intn(ids))
		switch rng.Intn(4) {
		case 0:
			d.insert(id, rng.Intn(1<<20))
		case 1:
			d.set(id, rng.Intn(1<<20))
		default:
			d.remove(id)
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

// TestFlowTabAdversarialStrides fills tables with arithmetic
// progressions chosen against a multiplicative hash: power-of-two
// strides (IDs that differ only in high bits, e.g. a flow index shifted
// into a tenant field), and multiples of the multiplier's inverse, which
// a single-word multiplicative hash maps to consecutive small products —
// one home slot for all of them. No key may end up more than a handful
// of slots from its home.
func TestFlowTabAdversarialStrides(t *testing.T) {
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
	const maxProbe = 8
	for name, stride := range strides {
		for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
			if uint64(stride)*uint64(n) > 1<<32 && stride%2 == 0 {
				continue // an even stride wraps onto its own keys
			}
			d := newFlowDiff(t, n)
			for k := 0; k < n; k++ {
				d.insert(uint32(k)*stride, k)
			}
			d.audit()
			if got := d.tab.longestProbe(); got > maxProbe {
				t.Errorf("stride %s, %d keys: longest probe %d, want <= %d", name, n, got, maxProbe)
			}
			// Delete every other key, then the rest: the backward shifts
			// run through whatever clusters the stride built.
			for k := 0; k < n; k += 2 {
				d.remove(uint32(k) * stride)
			}
			d.audit()
			for k := 1; k < n; k += 2 {
				d.remove(uint32(k) * stride)
			}
			d.audit()
		}
	}
}

// TestFlowTabWrappingClusters builds probe clusters that run off the end
// of the slot array and continue at slot 0, then deletes from them in
// every order: the backward shift must carry keys across the wrap and
// must not pull a key in front of its own home slot.
func TestFlowTabWrappingClusters(t *testing.T) {
	const hint = 16 // 32 slots
	probe := newFlowTab(hint)
	last := uint32(len(probe.slots) - 1)
	// Keys grouped by home slot, for the last three and first two slots.
	byHome := map[uint32][]uint32{}
	for id := uint32(0); len(byHome[last]) < 3 || len(byHome[last-1]) < 3 || len(byHome[last-2]) < 2 || len(byHome[0]) < 2 || len(byHome[1]) < 2; id++ {
		if h := probe.home(id); h >= last-2 || h <= 1 {
			byHome[h] = append(byHome[h], id)
		}
	}
	var keys []uint32
	for _, h := range []uint32{last - 2, last - 1, last, 0, 1} {
		keys = append(keys, byHome[h][:2]...)
	}
	keys = append(keys, byHome[last][2], byHome[last-1][2])

	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 2000; round++ {
		d := newFlowDiff(t, hint)
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for i, id := range keys {
			d.insert(id, i)
		}
		if round == 0 {
			wrapped := false
			for i, s := range d.tab.slots[:4] {
				if s.sid != 0 && d.tab.home(s.id) > uint32(i) {
					wrapped = true
				}
			}
			if !wrapped {
				t.Fatal("test keys built no cluster that wraps the slot array")
			}
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, id := range keys {
			d.remove(id)
			d.audit()
		}
	}
}

// TestFlowTabGrowth fills a table far past its hint: it must double as
// often as it takes, keep every key, and keep the half-full bound.
func TestFlowTabGrowth(t *testing.T) {
	d := newFlowDiff(t, 4)
	first := len(d.tab.slots)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1<<14; i++ {
		d.set(rng.Uint32(), i)
		if i&(i-1) == 0 {
			d.audit()
		}
	}
	d.audit()
	if len(d.tab.slots) <= first || 2*d.tab.n > len(d.tab.slots) {
		t.Fatalf("%d keys in %d slots (started at %d)", d.tab.n, len(d.tab.slots), first)
	}
	for id := range d.ref {
		d.remove(id)
	}
	d.audit()
}

// FuzzFlowTab interprets the input as an operation stream over a small
// key space on a table that starts at the minimum size, so collisions,
// wrapping clusters and growth all occur within a few dozen operations;
// the table is audited against the reference map after every one.
func FuzzFlowTab(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 2, 1, 0, 0, 1, 0})
	f.Add([]byte("\x00\x10\x01\x00\x20\x02\x00\x30\x03\x02\x10\x00\x01\x20\x07\x03\x20\x00"))
	f.Add([]byte{4, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0, 4, 4, 0, 6, 0, 0, 6, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newFlowDiff(t, 1)
		for ; len(data) >= 3; data = data[3:] {
			// Bit 2 of the opcode picks a stride of 2^24, whose keys
			// differ only in bits the hash must fold down.
			id := uint32(data[1])
			if data[0]&4 != 0 {
				id <<= 24
			}
			switch data[0] & 3 {
			case 0:
				d.insert(id, int(data[2]))
			case 1:
				d.set(id, int(data[2]))
			default:
				d.remove(id)
			}
			d.audit()
		}
	})
}
