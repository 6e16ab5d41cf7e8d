package core

// SublistEntries returns each active sublist's entries in rank order, for
// external tests of how runs of equal ranks spread across sublists.
func SublistEntries(l *List) [][]Entry {
	out := make([][]Entry, l.active)
	for i := range out {
		for j, sl := 0, &l.sublists[l.order[i].sublistID]; j < sl.len(); j++ {
			out[i] = append(out[i], sl.at(j).entry())
		}
	}
	return out
}
