package conform

import (
	"fmt"
	"math"
	"slices"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// Core is l as a conformance backend that also holds the list's own
// operations outside the contract to the answers of the ones inside it:
//
//   - Dequeue and DequeueRange first peek (Peek, PeekRange); the
//     extraction must then take the peeked element.
//   - Every other DequeueFlow of a resident checks MinRankAtLeast and a
//     rank range that must miss against a brute force over Snapshot, and
//     extracts by DequeueRankRange when the resident is the first entry
//     of a rank range around its own rank.
//   - NextWakeAfter(now) first checks that Peek(now) finds an element
//     exactly when MinSendTime ≤ now, and that PeekRange over the found
//     ID alone, and over the IDs up to it, finds the same element.
//
// Peeks that take nothing must charge no counter, and a rank-range miss
// no operation. A failed check panics, and the suite reports the panic
// with its step.
func Core(l *core.List) backend.Backend {
	return &coreList{CoreList: backend.WrapCore(l)}
}

type coreList struct {
	*backend.CoreList
	calls uint64 // alternates the checked paths
}

func (c *coreList) Dequeue(now clock.Time) (core.Entry, bool) {
	return c.extract(func() (core.Entry, bool) { return c.List.Peek(now) },
		func() (core.Entry, bool) { return c.List.Dequeue(now) })
}

func (c *coreList) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	return c.extract(func() (core.Entry, bool) { return c.List.PeekRange(now, lo, hi) },
		func() (core.Entry, bool) { return c.List.DequeueRange(now, lo, hi) })
}

// extract peeks the head, then takes it. It panics unless the
// extraction took the head and the peek charged no stats.
func (c *coreList) extract(peek, take func() (core.Entry, bool)) (core.Entry, bool) {
	before := c.List.Stats()
	head, ok := peek()
	peeked := c.List.Stats()
	if got, gotOK := take(); got != head || gotOK != ok || peeked != before {
		panic(fmt.Sprintf("peek %v,%v (stats %+v -> %+v); extraction %v,%v", head, ok, before, peeked, got, gotOK))
	}
	return head, ok
}

// DequeueFlow extracts id. Every other call with id resident first
// checks the rank-range queries over [lo, lo+4], lo a little below id's
// rank: MinRankAtLeast(lo) is the first resident at or above lo, and
// DequeueRankRange below that resident's rank misses and counts no
// operation. When that resident is id, DequeueRankRange extracts it.
func (c *coreList) DequeueFlow(id uint32) (core.Entry, bool) {
	if c.calls++; c.calls%2 == 1 || !c.List.Contains(id) {
		return c.List.DequeueFlow(id)
	}
	snap := c.List.Snapshot()
	e := snap[slices.IndexFunc(snap, func(e core.Entry) bool { return e.ID == id })]
	lo := e.Rank - min(e.Rank, uint64(id%5))
	hi := lo + min(4, math.MaxUint64-lo)
	want := snap[slices.IndexFunc(snap, func(e core.Entry) bool { return e.Rank >= lo })]
	before := c.CoreList.Stats()
	got, ok := c.List.MinRankAtLeast(lo)
	if want.Rank > lo {
		if miss, hit := c.List.DequeueRankRange(lo, want.Rank-1); hit {
			panic(fmt.Sprintf("DequeueRankRange(%d, %d) = %v over no resident", lo, want.Rank-1, miss))
		}
	}
	if !ok || got != want || c.CoreList.Stats() != before {
		panic(fmt.Sprintf("MinRankAtLeast(%d) = %v,%v, brute force %v; op counters %+v -> %+v", lo, got, ok, want, before, c.CoreList.Stats()))
	}
	if want.ID != id {
		return c.List.DequeueFlow(id)
	}
	if got, ok := c.List.DequeueRankRange(lo, hi); !ok || got != e {
		panic(fmt.Sprintf("DequeueRankRange(%d, %d) = %v,%v, brute force %v", lo, hi, got, ok, e))
	}
	return e, true
}

// NextWakeAfter checks the peeks' verdict at now against MinSendTime
// before it answers.
func (c *coreList) NextWakeAfter(now clock.Time) clock.Time {
	before := c.List.Stats()
	minSend, nonEmpty := c.List.MinSendTime()
	head, ok := c.List.Peek(now)
	id, idOK := c.List.PeekRange(now, head.ID, head.ID)
	upTo, upToOK := c.List.PeekRange(now, 0, head.ID)
	if ok != (nonEmpty && minSend <= now) || (ok && (head.SendTime > now || id != head || upTo != head || !idOK || !upToOK)) ||
		c.List.Stats() != before {
		panic(fmt.Sprintf("Peek(%v) = %v,%v, MinSendTime %v,%v; PeekRange over its ID %v, up to it %v; stats %+v -> %+v",
			now, head, ok, minSend, nonEmpty, id, upTo, before, c.List.Stats()))
	}
	return c.List.NextWakeAfter(now)
}
