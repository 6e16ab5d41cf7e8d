// Flat combining over the per-shard ingress rings (ring.go): a producer
// that finds its home shard's lock free executes its operation directly
// (the quiescent path is unchanged, bit-for-bit), and one that finds the
// lock contended publishes an operation record instead of queueing on
// the mutex. Whichever thread holds the lock — a direct producer, the
// dequeue tournament, or a blocked producer that eventually wins
// TryLock — drains every published record inside its existing critical
// section, so under contention one lock acquisition amortizes across
// many operations (Hendler et al., flat combining).
//
// Semantics are preserved because a ring record's operation executes
// under exactly the same lock, against exactly the same list, via
// exactly the same code (execOpLocked) as a direct call; the global FIFO
// order is preserved because the record carries the engine sequence
// number drawn before publish, and core.List places equal-rank elements
// by stamped sequence regardless of insertion order (core's seq-aware
// sublist selection). Operations parked in a ring have, by definition,
// not returned to their caller, so a concurrent reader that misses them
// linearizes before them.
package shard

import (
	"fmt"
	"runtime"

	"pieo/internal/backend"
	"pieo/internal/core"
)

// noTicket marks a ring drain performed on no record of the drainer's
// own (the direct path, the tournament, SetCombining's final sweep).
const noTicket = ^uint64(0)

// combine routes one operation through the combining layer: direct
// execution under TryLock when the shard is uncontended, otherwise a
// ring publish followed by a wait that alternates between checking for
// a combiner's result and trying to become the combiner itself.
// handled=false means the layer stayed out of it (shard quarantined
// under the lock, or the ring is full) and the caller must take its
// slow path. A resRetry result means the shard went down before the
// record executed; the caller re-routes exactly as if it had seen the
// quarantine itself.
func (e *Engine) combine(i int, sd *shard, op uint32, ent core.Entry, seq uint64) (res uint32, out core.Entry, handled bool) {
	if !e.forceRing.Load() && sd.mu.TryLock() {
		if sd.down {
			sd.mu.Unlock()
			return 0, core.Entry{}, false
		}
		res, out = e.execOpLocked(i, sd, op, ent, seq)
		if !sd.down && sd.ring.head != sd.ring.tail.Load() {
			e.drainRingLocked(i, sd, noTicket)
		}
		sd.mu.Unlock()
		return res, out, true
	}
	t, rec, ok := sd.ring.claim()
	if !ok {
		// Ring full: a deep burst of blocked producers. Fall back to a
		// blocking acquisition via the caller's slow path.
		return 0, core.Entry{}, false
	}
	e.cRingOps.Add(1)
	rec.publish(t, op, ent, seq)
	res, out = e.awaitRecord(i, sd, t, rec)
	return res, out, true
}

// awaitRecord is a producer's wait loop on its own published record: it
// alternates between checking for a combiner's result, cancelling the
// record if the shard quarantines before any combiner claims it, and
// trying to become the combiner itself. It returns the record's result
// (resRetry after a cancellation or flush) with the slot freed. Shared
// by the single-op combine path and EnqueueBatch's block publishes.
func (e *Engine) awaitRecord(i int, sd *shard, t uint64, rec *ringRecord) (res uint32, out core.Entry) {
	for {
		v := rec.turn.Load()
		switch {
		case v == 4*t+3:
			res, out = rec.res, rec.out
			rec.free(t)
			return res, out
		case v == 4*t+1 && sd.downFlag.Load():
			// The shard quarantined before any combiner claimed the
			// record. The quarantine's own ring flush may still complete
			// it; the CAS decides — winning it cancels the record.
			if rec.turn.CompareAndSwap(4*t+1, 4*t+2) {
				rec.free(t)
				return resRetry, core.Entry{}
			}
		default:
			if sd.mu.TryLock() {
				if !sd.down {
					e.drainRingLocked(i, sd, t)
				}
				sd.mu.Unlock()
			} else {
				runtime.Gosched()
			}
		}
	}
}

// drainRingLocked executes every published ring record under the held
// shard lock, in ticket order. self is the caller's own ticket (noTicket
// when it has none); records other than self count as combined. The
// caller must hold sd.mu with sd.down false.
func (e *Engine) drainRingLocked(i int, sd *shard, self uint64) {
	r := sd.ring
	executed, combined := 0, 0
	for !sd.down {
		t := r.head
		rec := &r.slots[t&ringMask]
		v := rec.turn.Load()
		switch {
		case v == 4*t+1:
			if !rec.turn.CompareAndSwap(v, v+1) {
				continue // the producer cancelled concurrently; re-read
			}
			// Prefetch: touch the NEXT slot's turn word before executing
			// this record, so its (likely producer-dirtied) line is already
			// in flight across the coherence fabric while execOpLocked runs
			// — the drain's per-record latency is otherwise one exec plus
			// one demand miss, serialized. A plain atomic load is the
			// portable prefetch; its value is discarded and re-read for
			// real on the next iteration.
			_ = r.slots[(t+1)&ringMask].turn.Load()
			rec.res, rec.out = e.execOpLocked(i, sd, rec.op, rec.ent, rec.seq)
			rec.turn.Store(4*t + 3)
			executed++
			if t != self {
				combined++
			}
			if r.head == t {
				// A quarantine inside the exec flushes the ring and moves
				// head past the tail itself; advance the cursor only when
				// it is still ours.
				r.head = t + 1
			}
		case v >= 4*t+2:
			// Ticket t is finished (cancelled, done, or freed — possibly
			// into a later wrap); skip it.
			r.head = t + 1
		default:
			// Free, or claimed but not yet published: nothing more to do.
			if executed > 0 {
				e.cDrains.Add(1)
			}
			if combined > 0 {
				e.cCombinedOps.Add(uint64(combined))
			}
			return
		}
	}
	if executed > 0 {
		e.cDrains.Add(1)
	}
	if combined > 0 {
		e.cCombinedOps.Add(uint64(combined))
	}
}

// flushRingLocked completes every published-but-unclaimed ring record
// with resRetry, so blocked producers re-route through the degraded slow
// path instead of waiting on a ring no combiner will visit. Called with
// the shard lock held when the shard goes down (quarantineLocked) —
// including from inside a drain's own exec, in which case head advances
// past the tail here and the interrupted drain stops on re-reading it.
func flushRingLocked(r *opRing) int {
	flushed := 0
	for {
		t := r.head
		rec := &r.slots[t&ringMask]
		v := rec.turn.Load()
		switch {
		case v == 4*t+1:
			if !rec.turn.CompareAndSwap(v, v+1) {
				continue
			}
			rec.res = resRetry
			rec.turn.Store(4*t + 3)
			r.head = t + 1
			flushed++
		case v >= 4*t+2:
			r.head = t + 1
		default:
			return flushed
		}
	}
}

// execOpLocked runs one operation against the locked, healthy shard and
// returns its ring result code. It is the single execution path shared
// by the TryLock direct route and the ring drain, so a combined
// operation runs literally the same code a direct one does. The caller
// must hold sd.mu with sd.down false; for opEnq the caller (or the
// record's producer) must hold a capacity reservation.
func (e *Engine) execOpLocked(i int, sd *shard, op uint32, ent core.Entry, seq uint64) (uint32, core.Entry) {
	switch op {
	case opEnq:
		var (
			started bool
			lerr    error
		)
		perr := e.protect(i, sd, OpEnqueue, func(l backend.ShardBackend) {
			started = true
			sd.resident++
			lerr = l.EnqueueSeq(ent, seq)
			if lerr != nil {
				sd.resident--
			}
		})
		if perr != nil {
			// Mid-insert quarantine: the salvage adjudicates whether the
			// insert landed, exactly as in Enqueue's probe path.
			inSalvage := sd.salvageIDs != nil && mapHas(sd.salvageIDs, ent.ID)
			switch {
			case inSalvage && started:
				return resOK, core.Entry{}
			case inSalvage:
				return resDup, core.Entry{}
			default:
				if started {
					// The insert never landed but was pre-counted as
					// resident, so the quarantine charged it as a lost
					// entry; unwind the phantom loss (size, counter, event
					// record) for the caller's re-route.
					e.undoPhantomLoss(i)
				}
				return resRetry, core.Entry{}
			}
		}
		if lerr != nil {
			// The shard list accepts up to the full shared capacity and the
			// producer holds a reservation, so the only reachable
			// failure is ErrDuplicate.
			return resDup, core.Entry{}
		}
		sd.noteMutation(ent.SendTime)
		return resOK, core.Entry{}
	case opDqf:
		var (
			got core.Entry
			ok  bool
		)
		e.protect(i, sd, OpDequeueFlow, func(l backend.ShardBackend) {
			got, ok = l.DequeueFlow(ent.ID)
			if !ok {
				return
			}
			sd.resident--
			sd.noteRemoval()
		})
		if !ok {
			// Absent — or quarantined mid-removal with the element now in
			// the salvage, unavailable until rebuild. Both report miss,
			// matching DequeueFlow's slow path. ok=true survives a
			// quarantine in the later bookkeeping: the element is out.
			return resMiss, core.Entry{}
		}
		return resOK, got
	case opUpd:
		var ok bool
		perr := e.protect(i, sd, OpUpdateRank, func(l backend.ShardBackend) {
			ok = l.UpdateRankSeq(ent.ID, ent.Rank, ent.SendTime, seq)
			if ok {
				sd.noteMutation(ent.SendTime)
			}
		})
		if perr != nil || !ok {
			return resMiss, core.Entry{}
		}
		return resOK, core.Entry{}
	}
	panic(fmt.Sprintf("shard: unknown ring op %d", op))
}

// SetCombining implements backend.Combining. Disabling the layer only
// gates new publishes, so every in-flight record is drained here (and a
// producer that raced past the flag drains its own record the next time
// it wins TryLock in its wait loop) — no operation is left parked.
func (e *Engine) SetCombining(on bool) {
	if on {
		e.combineOn.Store(true)
		return
	}
	e.combineOn.Store(false)
	for i, sd := range e.shards {
		sd.mu.Lock()
		if !sd.down {
			e.drainRingLocked(i, sd, noTicket)
		}
		sd.mu.Unlock()
	}
}

// CombiningEnabled implements backend.Combining.
func (e *Engine) CombiningEnabled() bool { return e.combineOn.Load() }

// CombiningStats implements backend.Combining.
func (e *Engine) CombiningStats() backend.CombiningStats {
	return backend.CombiningStats{
		RingOps:        e.cRingOps.Load(),
		CombinedOps:    e.cCombinedOps.Load(),
		CombinerDrains: e.cDrains.Load(),
	}
}

// SetForceRing makes every combining-eligible operation take the ring
// path even when the shard lock is free: the caller publishes a record,
// immediately wins the lock, and drains it back out — the full ring
// protocol under deterministic single-threaded conditions. It exists so
// differential and invariant tests can hold the ring path to the exact
// quiescent contract; production callers want the TryLock direct path.
func (e *Engine) SetForceRing(on bool) { e.forceRing.Store(on) }

var _ backend.Combining = (*Engine)(nil)

// checkRingLocked validates a quiescent ring: every consumed ticket
// freed, no record published, taken, or awaiting pickup. Called by
// CheckInvariants with the shard lock held.
func checkRingLocked(r *opRing, shard int) error {
	tail := r.tail.Load()
	if r.head > tail {
		return fmt.Errorf("shard %d: ring head %d ahead of tail %d", shard, r.head, tail)
	}
	for t := r.head; t < tail; t++ {
		v := r.slots[t&ringMask].turn.Load()
		if v != 4*(t+ringSlots) {
			return fmt.Errorf("shard %d: ring ticket %d in state %d (turn=%d), want freed", shard, t, v%4, v)
		}
	}
	return nil
}
