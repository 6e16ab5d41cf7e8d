package core

// SublistEntries returns each active sublist's entries in rank order, for
// external tests of how runs of equal ranks spread across sublists.
func SublistEntries(l *List) [][]Entry {
	out := make([][]Entry, l.active)
	for i := range out {
		for _, h := range l.sublists[l.order[i].sublistID].hs {
			out[i] = append(out[i], l.arena.at(h).entry())
		}
	}
	return out
}
