package backend

import (
	"pieo/internal/clock"
	"pieo/internal/core"
)

// Batcher is the batch-operation capability. Backends with a native batch
// path use it to amortize per-operation software overhead — lock
// acquisitions, summary publishes — across many elements; every
// implementation preserves the exact one-at-a-time §3.1 semantics:
//
//   - EnqueueBatch(es) behaves exactly like calling Enqueue(es[0]),
//     Enqueue(es[1]), … in order. It attempts every entry even after a
//     failure, and returns how many succeeded plus the first error
//     encountered (nil when all succeeded). The final list state, the
//     FIFO tie-break order, and any hardware-modeled Stats are identical
//     to the sequential calls.
//   - DequeueUpTo(now, k, out) behaves exactly like calling Dequeue(now)
//     up to k times, appending each extracted entry to out (which may be
//     nil) and stopping early when no element is eligible. Passing a
//     capacity-k buffer keeps the call allocation-free.
//
// Backends without the capability are driven through the package-level
// EnqueueBatch/DequeueUpTo helpers, which fall back to the per-op loop —
// so consumers can batch unconditionally and still run on any Backend.
type Batcher interface {
	EnqueueBatch(es []core.Entry) (int, error)
	DequeueUpTo(now clock.Time, k int, out []core.Entry) []core.Entry
}

// EnqueueBatch inserts es in order through b's native batch path when it
// has one, else through sequential Enqueue calls. It returns the number
// of entries accepted and the first error encountered (nil when every
// entry was accepted); later entries are attempted regardless, exactly
// like the sequential loop.
func EnqueueBatch(b Backend, es []core.Entry) (int, error) {
	if bb, ok := b.(Batcher); ok {
		return bb.EnqueueBatch(es)
	}
	accepted := 0
	var firstErr error
	for _, e := range es {
		if err := b.Enqueue(e); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		accepted++
	}
	return accepted, firstErr
}

// DequeueUpTo extracts up to k eligible elements at now, appending them
// to out and returning the extended slice. It uses b's native batch path
// when present, else a sequential Dequeue loop.
func DequeueUpTo(b Backend, now clock.Time, k int, out []core.Entry) []core.Entry {
	if bb, ok := b.(Batcher); ok {
		return bb.DequeueUpTo(now, k, out)
	}
	for i := 0; i < k; i++ {
		e, ok := b.Dequeue(now)
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}
