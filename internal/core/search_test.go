package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pieo/internal/clock"
)

// plainUpperBound is the search the enqueue's guided one must agree
// with: the first rank-order index of the sublist at order position pos
// whose rank exceeds r, by binary search over the whole window.
func plainUpperBound(l *List, pos int, r uint64) int {
	sl := &l.sublists[l.order[pos].sublistID]
	return sort.Search(sl.len(), func(i int) bool { return l.at(sl, i).rank > r })
}

// checkGuidedSearch holds upperBound to plainUpperBound at every active
// position for every rank the layout makes interesting: each resident's
// rank and its neighbours, both cached bounds the interpolation reads
// (the sublist's smallest rank and the next sublist's) and theirs, and
// the ends of the rank space.
func checkGuidedSearch(t *testing.T, l *List, layout string) {
	t.Helper()
	for pos := 0; pos < l.active; pos++ {
		probes := []uint64{0, math.MaxUint64, l.order[pos].smallestRank}
		if pos+1 < l.active {
			probes = append(probes, l.order[pos+1].smallestRank)
		}
		for _, h := range l.sublists[l.order[pos].sublistID].hs {
			probes = append(probes, l.arena.at(h).rank)
		}
		for _, p := range probes {
			for _, r := range []uint64{p - 1, p, p + 1} {
				if got, want := l.upperBound(pos, r), plainUpperBound(l, pos, r); got != want {
					t.Fatalf("%s: position %d of %d (S=%d, %d residents): upperBound(%d) = %d, binary search %d",
						layout, pos, l.active, l.sublistSize, l.sublists[l.order[pos].sublistID].len(), r, got, want)
				}
			}
		}
	}
}

// TestGuidedSearchIsUpperBound runs the guided search against the plain
// one on the rank layouts that defeat an interpolated guess: long runs
// of one rank, hier's two regions (region<<48 | rank) inside one
// sublist, exponentially skewed ranks, and runs equal to the next
// sublist's smallest rank. Each layout is checked full, after a drain of
// every third resident has left sublists part-full, and while the
// enqueues that build it run through the search.
func TestGuidedSearchIsUpperBound(t *testing.T) {
	layouts := []struct {
		name string
		rank func(rng *rand.Rand, i int) uint64
	}{
		{"all-equal runs", func(_ *rand.Rand, i int) uint64 { return uint64(i/40) * 7 }},
		{"one rank", func(*rand.Rand, int) uint64 { return 42 }},
		{"two regions", func(rng *rand.Rand, i int) uint64 {
			return uint64(i%2+1)<<48 | uint64(rng.Intn(1000))
		}},
		{"skewed", func(rng *rand.Rand, _ int) uint64 {
			return uint64(math.Exp(rng.Float64() * 43))
		}},
		{"next sublist's smallest", func(rng *rand.Rand, _ int) uint64 {
			return uint64(rng.Intn(4)) * 1000 // few values, each run spanning sublists
		}},
		{"extremes", func(rng *rand.Rand, _ int) uint64 {
			return []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}[rng.Intn(4)]
		}},
	}
	for _, ly := range layouts {
		for _, s := range []int{1, 2, 3, 16, 64} {
			name := fmt.Sprintf("%s/S=%d", ly.name, s)
			rng := rand.New(rand.NewSource(int64(s)))
			l := NewWithSublistSize(400, s)
			for i := 0; i < 300; i++ {
				if err := l.Enqueue(Entry{ID: uint32(i), Rank: ly.rank(rng, i), SendTime: clock.Always}); err != nil {
					t.Fatal(err)
				}
				if i%37 == 0 {
					checkGuidedSearch(t, l, name)
				}
			}
			checkGuidedSearch(t, l, name)
			for id := uint32(0); id < 300; id += 3 {
				l.DequeueFlow(id)
			}
			checkGuidedSearch(t, l, name+" drained")
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// FuzzGuidedSearch builds a list from arbitrary ranks — each 9 bytes of
// input a rank and a shift that spreads it anywhere in the 64-bit space
// — and holds the guided search to the plain one.
func FuzzGuidedSearch(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 1, 60, 0, 0, 0, 0, 0, 0, 0, 2})
	f.Add(make([]byte, 9*40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		s := int(data[0]%16) + 1
		l := NewWithSublistSize(len(data)/9+1, s)
		for i := 0; i+9 <= len(data); i += 9 {
			r := binary.LittleEndian.Uint64(data[i+1:i+9]) << (data[i] % 64)
			if err := l.Enqueue(Entry{ID: uint32(i), Rank: r, SendTime: clock.Always}); err != nil {
				t.Fatal(err)
			}
		}
		checkGuidedSearch(t, l, fmt.Sprintf("fuzz S=%d", s))
	})
}
