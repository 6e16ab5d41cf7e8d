package core

import "pieo/internal/clock"

// Rank-range operations (§8): the paper observes that the PIEO
// implementation "can be naturally extended to support predicates of the
// form a <= key <= b", making the structure an efficient hardware
// dictionary. These operations reuse the Ordered-Sublist-Array exactly
// like the time-predicate path: the pointer array locates the one or two
// candidate sublists in one parallel compare + priority encode, and the
// sublist-level compare finds the element, so the O(1)-sublist-touch
// property is preserved.

// MinRankAtLeast returns the smallest-ranked entry whose rank is >= lo
// (ignoring eligibility), without removing it. ok is false when every
// entry ranks below lo or the list is empty.
func (l *List) MinRankAtLeast(lo uint64) (Entry, bool) {
	pos, idx := l.findMinRankAtLeast(lo)
	if pos == -1 {
		return Entry{}, false
	}
	return l.sublists[l.order[pos].sublistID].at(idx).entry(), true
}

// DequeueRankRange extracts the smallest-ranked entry with
// lo <= rank <= hi, ignoring eligibility — the §8 dictionary range
// filter. ok is false when no entry ranks inside the range.
func (l *List) DequeueRankRange(lo, hi uint64) (Entry, bool) {
	pos, idx := l.findMinRankAtLeast(lo)
	if pos == -1 {
		return Entry{}, false
	}
	sl := &l.sublists[l.order[pos].sublistID]
	if sl.at(idx).rank > hi {
		return Entry{}, false
	}
	l.stats.FlowDequeues++ // datapath-wise identical to dequeue(f)
	l.stats.Cycles += 4
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	out := sl.at(idx).entry()
	l.extractAt(pos, sl, idx)
	return out, true
}

// CountRankRange returns how many entries have lo <= rank <= hi. It is
// O(number of matching sublists) in the model and O(n) worst case in
// software; intended for dictionary-style queries and tests.
func (l *List) CountRankRange(lo, hi uint64) int {
	count := 0
	for i := 0; i < l.active; i++ {
		sl := &l.sublists[l.order[i].sublistID]
		if sl.at(0).rank > hi {
			break // sublists are rank-partitioned: nothing further matches
		}
		for j := range sl.slots {
			if r := sl.at(j).rank; r >= lo && r <= hi {
				count++
			}
		}
	}
	return count
}

// findMinRankAtLeast locates the first entry (in global rank order) with
// rank >= lo. Because consecutive sublists partition the rank order, the
// answer is either in the sublist where lo "would insert" or at the head
// of the next one — at most two sublists are inspected, mirroring the
// hardware's two-read budget.
func (l *List) findMinRankAtLeast(lo uint64) (pos, idx int) {
	if l.active == 0 {
		return -1, -1
	}
	l.stats.PtrCompares += uint64(l.active)
	// First sublist whose smallest rank is >= lo: its head is a
	// candidate. The preceding sublist may also hold entries >= lo in
	// its tail. Both searches are binary — the pointer array's smallest
	// ranks are nondecreasing and each sublist is rank-ordered — while
	// Stats charges the hardware's parallel comparators as usual.
	flo, fhi := 0, l.active
	for flo < fhi {
		mid := int(uint(flo+fhi) >> 1)
		if l.order[mid].smallestRank >= lo {
			fhi = mid
		} else {
			flo = mid + 1
		}
	}
	first := flo
	if first > 0 {
		prev := &l.sublists[l.order[first-1].sublistID]
		l.stats.ElemCompares += uint64(prev.len())
		jlo, jhi := 0, prev.len()
		for jlo < jhi {
			mid := int(uint(jlo+jhi) >> 1)
			if prev.at(mid).rank >= lo {
				jhi = mid
			} else {
				jlo = mid + 1
			}
		}
		if jlo < prev.len() {
			return first - 1, jlo
		}
	}
	if first < l.active {
		return first, 0
	}
	return -1, -1
}

// UpdateRank atomically changes the rank (and optionally the send time)
// of the element with the given id, preserving its position semantics:
// it is the §3.1 dequeue(f) + enqueue(f) pattern fused into one call.
// ok is false when id is not queued.
func (l *List) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	e, ok := l.DequeueFlow(id)
	if !ok {
		return false
	}
	e.Rank = rank
	e.SendTime = sendTime
	if err := l.Enqueue(e); err != nil {
		// The slot we just freed guarantees capacity; duplicate is
		// impossible because we removed the id.
		panic("pieo: UpdateRank re-enqueue failed: " + err.Error())
	}
	return true
}

// UpdateRankSeq is UpdateRank with a caller-supplied FIFO sequence for
// the re-enqueued element (see EnqueueSeq): lists driven by an external
// sequence must reset the element's FIFO position from the same counter.
func (l *List) UpdateRankSeq(id uint32, rank uint64, sendTime clock.Time, seq uint64) bool {
	e, ok := l.DequeueFlow(id)
	if !ok {
		return false
	}
	e.Rank = rank
	e.SendTime = sendTime
	if err := l.EnqueueSeq(e, seq); err != nil {
		panic("pieo: UpdateRankSeq re-enqueue failed: " + err.Error())
	}
	return true
}
