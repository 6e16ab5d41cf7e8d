package core

import (
	"fmt"
	"strings"

	"pieo/internal/clock"
)

// SublistView is a read-only snapshot of one active sublist and its
// cached pointer-array attributes, for tracing tools and tests that want
// to render the Fig 5-7 structure.
type SublistView struct {
	Position         int // position in the Ordered-Sublist-Array
	SublistID        int
	SmallestRank     uint64
	SmallestSendTime clock.Time
	Num              int
	Full             bool
	Entries          []Entry      // Rank-Sublist, rank order
	EligTimes        []clock.Time // Eligibility-Sublist, ascending
}

// DumpSublists returns views of the non-empty partition of the
// Ordered-Sublist-Array in order. Sublists that have no storage bound yet
// are empty ones like any other and do not appear.
func (l *List) DumpSublists() []SublistView {
	views := make([]SublistView, 0, l.active)
	for i := 0; i < l.active; i++ {
		p := l.order[i]
		sl := &l.sublists[p.sublistID]
		v := SublistView{
			Position:         i,
			SublistID:        p.sublistID,
			SmallestRank:     p.smallestRank,
			SmallestSendTime: p.smallestSendTime,
			Num:              p.num,
			Full:             sl.full(l.sublistSize),
			Entries:          make([]Entry, sl.len()),
			EligTimes:        append([]clock.Time(nil), sl.elig...),
		}
		for j := range v.Entries {
			v.Entries[j] = sl.at(j).entry()
		}
		views = append(views, v)
	}
	return views
}

// String renders the view in the style of the paper's figures.
func (v SublistView) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pos %d (sublist %d, num=%d", v.Position, v.SublistID, v.Num)
	if v.Full {
		b.WriteString(", full")
	}
	fmt.Fprintf(&b, ", smallest_rank=%d, smallest_send=%s): ", v.SmallestRank, v.SmallestSendTime)
	for i, e := range v.Entries {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(e.String())
	}
	return b.String()
}
