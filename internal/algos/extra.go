package algos

import (
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/sched"
)

// SFQ returns Stochastic Fairness Queuing (McKenney, §2.2): flows are
// hashed into a fixed number of buckets and the *buckets* are served
// round-robin, trading perfect isolation for O(buckets) state — flows
// that collide share one bucket's bandwidth. Expressed in PIEO by
// ranking every flow with its bucket's round counter; when a bucket is
// served, its round advances and every queued member is re-ranked
// through the asynchronous dequeue(f)+enqueue(f) path (§4.4), so each
// bucket gets exactly one transmission per round regardless of how many
// flows hash into it.
func SFQ(buckets int) *sched.Program {
	if buckets <= 0 {
		panic("algos: SFQ needs a positive bucket count")
	}
	rounds := make([]uint64, buckets)
	members := make([]map[flowq.FlowID]bool, buckets)
	for i := range members {
		members[i] = make(map[flowq.FlowID]bool)
	}
	bucketOf := func(id flowq.FlowID) int {
		// Knuth multiplicative hash; any fixed hash works, the point is
		// that flows cannot choose their bucket.
		return int((uint32(id) * 2654435761) % uint32(buckets))
	}
	return &sched.Program{
		Name: "sfq",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			b := bucketOf(f.ID)
			members[b][f.ID] = true
			f.Rank = rounds[b]
			f.SendTime = clock.Always
		},
		PostDequeue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) []flowq.Packet {
			b := bucketOf(f.ID)
			rounds[b]++
			p, ok := f.Queue.Pop()
			if !ok {
				panic("sfq: scheduled flow with empty queue")
			}
			if f.Queue.Empty() {
				delete(members[b], f.ID)
			}
			// Re-rank the bucket's other queued members to the new round
			// BEFORE re-enqueueing the serviced flow, so the FIFO
			// tie-break rotates service within the bucket instead of
			// letting the same member win every round.
			for id := range members[b] {
				if id != f.ID && s.List.Contains(uint32(id)) {
					s.Alarm(now, id, func(*sched.Flow) {})
				}
			}
			s.EnqueueFlow(now, f)
			f.LastScheduled = now
			return s.Burst(p)
		},
	}
}

// TDMA returns an Ethernet-TDMA-style time-slotted scheduler (§1's
// "Ethernet TDMA" motivation): the timeline is divided into fixed slots
// assigned round-robin to flows; a flow's packets are eligible only
// during its own slots, giving collision-free, jitter-free transmission
// at the cost of work conservation. slotNs is the slot length; the flow
// owning slot k is k mod nFlows (by flow ID).
func TDMA(nFlows int, slotNs clock.Time) *sched.Program {
	if nFlows <= 0 || slotNs == 0 {
		panic("algos: TDMA needs flows and a slot length")
	}
	// nextSlotFor returns the earliest instant >= now at which flow id
	// may START a transmission of wire ns and still finish inside one of
	// its own slots — real TDMA never spills across a slot boundary.
	nextSlotFor := func(id flowq.FlowID, now clock.Time, wire clock.Time) clock.Time {
		if wire > slotNs {
			return clock.Never // the packet can never fit a slot
		}
		cycle := clock.Time(nFlows) * slotNs
		cycleStart := now - now%cycle
		mySlot := cycleStart + clock.Time(id)*slotNs
		for {
			if mySlot >= now && mySlot+slotNs >= mySlot+wire {
				return mySlot
			}
			if mySlot < now && now+wire <= mySlot+slotNs {
				return now // inside the slot with room to finish
			}
			if mySlot+slotNs > now && mySlot <= now {
				// Inside the slot but the packet no longer fits.
				mySlot += cycle
				continue
			}
			if mySlot < now {
				mySlot += cycle
				continue
			}
			return mySlot
		}
	}
	return &sched.Program{
		Name: "tdma",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			head, _ := f.Queue.Head()
			send := nextSlotFor(f.ID, now, s.WireTime(head.Size))
			f.Rank = uint64(send)
			f.SendTime = send
		},
		PostDequeue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) []flowq.Packet {
			p, ok := f.Queue.Pop()
			if !ok {
				panic("tdma: scheduled flow with empty queue")
			}
			// The next packet cannot start before this one leaves the
			// wire, so the re-enqueue's slot computation uses the
			// completion instant, not the start instant — otherwise the
			// tail of a slot admits one packet too many.
			if !f.Queue.Empty() {
				s.EnqueueFlow(now+s.WireTime(p.Size), f)
			}
			f.LastScheduled = now
			return s.Burst(p)
		},
	}
}

// TokenBucketInput is the input-triggered variant of the §4.2 token
// bucket, for the §3.2.1 trigger-model precision study: every packet's
// release time is precomputed when it ARRIVES (keeping the dequeue path
// trivial), using the flow's projected bucket state. When queue depth
// or drain order diverge from the projection, the precomputed times go
// stale — the imprecision the paper attributes to the input-triggered
// model for shaping policies.
func TokenBucketInput() *sched.Program {
	return &sched.Program{
		Name:  "token-bucket-input",
		Model: sched.InputTriggered,
		PrePacket: func(s *sched.Scheduler, now clock.Time, f *sched.Flow, p *flowq.Packet) {
			// Project the bucket forward from the last *planned* release
			// rather than the last actual one.
			planFrom := f.LastRefill
			if planFrom < now {
				planFrom = now
			}
			f.Tokens += f.RateGbps / 8 * float64(planFrom-f.LastRefill)
			if f.Tokens > f.Burst {
				f.Tokens = f.Burst
			}
			send := planFrom
			need := float64(p.Size)
			if need > f.Tokens {
				send = clock.After(planFrom, (need-f.Tokens)*8/f.RateGbps)
			}
			// Account the refill earned while waiting for the release
			// instant, then charge the packet; the bucket state is now
			// "as of send".
			f.Tokens += f.RateGbps / 8 * float64(send-planFrom)
			if f.Tokens > f.Burst {
				f.Tokens = f.Burst
			}
			f.Tokens -= need
			f.LastRefill = send
			p.SendAt = send
			p.Rank = uint64(send)
		},
	}
}
