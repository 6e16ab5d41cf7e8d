package core

import "pieo/internal/clock"

// EnqueueBatch inserts es in order, exactly as the equivalent sequence of
// Enqueue calls would: every entry is attempted even after a failure, the
// FIFO tie-break sequence advances per attempted-and-accepted entry, and
// Stats charges each insert as an individual 4-cycle hardware operation
// (the hardware has no batch datapath; batching is a software-side
// amortization of call overhead only). It returns the number of entries
// accepted and the first error encountered, nil when all were accepted.
func (l *List) EnqueueBatch(es []Entry) (int, error) {
	accepted := 0
	var firstErr error
	for i := range es {
		if err := l.Enqueue(es[i]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
	}
	return accepted, firstErr
}

// DequeueUpTo extracts up to k eligible elements at now in dequeue order,
// appending them to out (which may be nil) and returning the extended
// slice. It is k sequential Dequeue(now) calls — same elements, same
// order, same Stats — and stops early at the first one that finds no
// eligible element, which is charged as the empty dequeue it is. Passing
// a buffer with capacity k keeps the call allocation-free.
func (l *List) DequeueUpTo(now clock.Time, k int, out []Entry) []Entry {
	for ; k > 0; k-- {
		e, ok := l.Dequeue(now)
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}
