// Package algos expresses the paper's §4 catalogue of packet scheduling
// algorithms against the PIEO programming framework: the work-conserving
// class (DRR, WFQ, WF²Q+), the non-work-conserving class (Token Bucket,
// RCSP), priority scheduling (strict priority, SJF, SRTF, EDF, LSTF), and
// the asynchronous patterns (starvation avoidance by priority aging,
// D3-style pause/resume on network feedback).
//
// Every algorithm is just a sched.Program: a catalogue policy
// (internal/policy) whose Rank sets the rank and the predicate, and
// optionally a custom post-dequeue — demonstrating the paper's thesis
// that "schedule the smallest ranked eligible element" expresses all of
// them. Most are a catalogue policy as it is, which a hierarchy node runs
// too, adapted with sched.FromPolicy. DRR, SFQ and TDMA add a
// post-dequeue, SJF and SRTF an arrival refresh, and Pacer and
// TokenBucketInput rank at arrival instead (input-triggered); those
// additions are flat-only.
package algos

import (
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/policy"
	"pieo/internal/sched"
)

// DRR returns Deficit Round Robin (§4.1): the round-robin policy gives
// every flow rank 1 and an always-true predicate, so PIEO's FIFO
// tie-breaking yields round-robin order; the custom post-dequeue
// transmits packets until the flow's deficit counter runs out.
func DRR() *sched.Program {
	return &sched.Program{
		Name:   "drr",
		Policy: policy.RoundRobin(),
		PostDequeue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) []flowq.Packet {
			f.Deficit += f.Quantum
			var burst []flowq.Packet
			for {
				head, ok := f.Queue.Head()
				if !ok || uint64(head.Size) > f.Deficit {
					break
				}
				f.Deficit -= uint64(head.Size)
				p, _ := f.Queue.Pop()
				burst = s.Burst(p)
			}
			if f.Queue.Empty() {
				f.Deficit = 0
			} else {
				s.EnqueueFlow(now, f)
			}
			f.LastScheduled = now
			return burst
		},
	}
}

// WFQ returns Weighted Fair Queuing (§4.1): the catalogue's WFQ, with
// the scheduler's global virtual clock.
func WFQ() *sched.Program { return sched.FromPolicy(policy.WFQ()) }

// WF2Q returns Worst-case Fair Weighted Fair Queuing (WF²Q+, §4.1, Fig
// 2(a)) — the algorithm PIFO cannot express (§2.3). The virtual clock's
// floor, the minimum start among backlogged flows, is the PIEO list's
// O(1) MinSendTime.
func WF2Q() *sched.Program { return sched.FromPolicy(policy.WF2Q()) }

// TokenBucket returns the classic non-work-conserving shaper (§4.2): the
// catalogue's token bucket over each flow's RateGbps and Burst. Set
// Flow.Tokens = Flow.Burst when configuring a flow so its bucket starts
// full.
func TokenBucket() *sched.Program { return sched.FromPolicy(policy.TokenBucket()) }

// RCSP returns Rate-Controlled Static-Priority queuing (§4.2): traffic
// shaping assigns each packet an eligibility time on arrival (the
// Packet.SendAt field), and among flows whose head packet is eligible,
// the highest static priority wins.
func RCSP() *sched.Program { return sched.FromPolicy(policy.RCSP()) }

// StrictPriority returns strict priority scheduling (§4.4, §4.5): rank is
// the flow's priority, predicate always true. PIEO emulates a plain
// priority queue this way.
func StrictPriority() *sched.Program { return sched.FromPolicy(policy.StrictPriority()) }

// AgeStarvedFlows is the §4.4 starvation-avoidance alarm: for every flow
// that has waited longer than threshold since it was last scheduled,
// asynchronously extract it, raise its priority one level (never past
// floor), and re-enqueue it. It returns the number of flows boosted.
// Callers invoke it from a periodic timer or any custom async event.
func AgeStarvedFlows(s *sched.Scheduler, now clock.Time, threshold clock.Time, floor uint64, ids []flowq.FlowID) int {
	boosted := 0
	for _, id := range ids {
		// A flow in the list exists; looking up any other ID would
		// create it and dilute every fair-queueing share.
		if !s.List.Contains(uint32(id)) {
			continue
		}
		f := s.Flow(id)
		if now-f.LastScheduled < threshold {
			continue
		}
		s.Alarm(now, id, func(f *sched.Flow) {
			if f.Priority > floor {
				f.Priority--
			}
			f.LastScheduled = now // restart the aging window
		})
		boosted++
	}
	return boosted
}

// Pause blocks a flow on asynchronous network feedback (§4.4, D3-style
// quenching): the flow is pulled out of the ordered list and stays out
// until Resume.
func Pause(s *sched.Scheduler, now clock.Time, id flowq.FlowID) {
	s.Alarm(now, id, func(f *sched.Flow) { f.Blocked = true })
}

// Resume unblocks a flow paused by Pause and re-enqueues it if it is
// backlogged.
func Resume(s *sched.Scheduler, now clock.Time, id flowq.FlowID) {
	s.Alarm(now, id, func(f *sched.Flow) { f.Blocked = false })
}

// SJF returns Shortest Job First (§4.5): rank is the flow's total queued
// bytes, refreshed asynchronously as packets arrive, so smaller jobs
// preempt larger ones at flow granularity.
func SJF() *sched.Program {
	return &sched.Program{
		Name:   "sjf",
		Policy: policy.SJF(),
		OnArrival: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			// A new packet grew the job: refresh the flow's rank via the
			// asynchronous dequeue(f)+enqueue(f) path (§4.4).
			if s.List.Contains(uint32(f.ID)) {
				s.Alarm(now, f.ID, func(*sched.Flow) {})
			}
		},
	}
}

// SRTF returns Shortest Remaining Time First (§4.5). Because the rank is
// recomputed at every re-enqueue from the bytes still queued, the rank
// tracks remaining work as the flow drains.
func SRTF() *sched.Program {
	p := SJF()
	p.Name = "srtf"
	return p
}

// EDF returns Earliest Deadline First (§4.5): rank is the head packet's
// absolute deadline.
func EDF() *sched.Program { return sched.FromPolicy(policy.EDF()) }

// LSTF returns Least Slack Time First (§4.5, the near-universal scheduler
// of UPS): rank is the head packet's slack — time to deadline minus wire
// time — at enqueue.
func LSTF() *sched.Program { return sched.FromPolicy(policy.LSTF()) }

// FIFO returns plain arrival-order scheduling (§2.3's baseline
// primitive), expressed in PIEO by giving every flow the same rank: the
// list's FIFO tie-break does the rest. Packets across flows leave in
// flow-enqueue order, packets within a flow in arrival order.
func FIFO() *sched.Program {
	return &sched.Program{Name: "fifo"} // nil Policy: round-robin, rank 1, always eligible
}

// Pacer returns a per-packet pacing program (§1's "protocols that rely
// on very accurate packet pacing"), input-triggered: every packet carries
// its own precomputed release time in SendAt, and the flow adopts it as
// both rank and predicate.
func Pacer() *sched.Program {
	return &sched.Program{
		Name: "pacer",
		PrePacket: func(s *sched.Scheduler, now clock.Time, f *sched.Flow, p *flowq.Packet) {
			p.Rank = uint64(p.SendAt)
		},
	}
}
