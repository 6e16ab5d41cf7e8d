// Package algos expresses the paper's §4 catalogue of packet scheduling
// algorithms against the PIEO programming framework: the work-conserving
// class (DRR, WFQ, WF²Q+), the non-work-conserving class (Token Bucket,
// RCSP), priority scheduling (strict priority, SJF, SRTF, EDF, LSTF), and
// the asynchronous patterns (starvation avoidance by priority aging,
// D3-style pause/resume on network feedback).
//
// Every algorithm is just a sched.Program: a rank function, a predicate
// function, and optionally a custom post-dequeue — demonstrating the
// paper's thesis that "schedule the smallest ranked eligible element"
// expresses all of them.
package algos

import (
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/sched"
)

// DRR returns Deficit Round Robin (§4.1): every flow has rank 1 and an
// always-true predicate, so PIEO's FIFO tie-breaking yields round-robin
// order; the custom post-dequeue transmits packets until the flow's
// deficit counter runs out.
func DRR() *sched.Program {
	return &sched.Program{
		Name: "drr",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			f.Rank = 1
			f.SendTime = clock.Always
		},
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

// fqScale converts a packet's wire time into a flow's virtual service:
// wire_time * sum_weights / flow_weight, so a flow with twice the weight
// accumulates finish time half as fast.
func fqScale(s *sched.Scheduler, f *sched.Flow, size uint32) uint64 {
	x := uint64(s.WireTime(size))
	sum := s.SumWeights
	if sum == 0 {
		sum = 1
	}
	return x * sum / f.Weight
}

// WFQ returns Weighted Fair Queuing (§4.1): rank is the head packet's
// virtual finish time, the predicate is always true, and system virtual
// time advances by the wire time of every transmitted packet.
func WFQ() *sched.Program {
	return &sched.Program{
		Name: "wfq",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			head, _ := f.Queue.Head()
			// Fig 2(a): start = max(finish, V) only when the flow begins
			// a new busy period; continuously backlogged flows chain
			// exactly from their previous finish (otherwise they bleed
			// service credit every packet).
			start := f.VirtualFinish
			if f.NewlyBacklogged {
				if v := uint64(s.V.Now()); v > start {
					start = v
				}
			}
			f.VirtualFinish = start + fqScale(s, f, head.Size)
			f.Rank = f.VirtualFinish
			f.SendTime = clock.Always
		},
		PostDequeue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) []flowq.Packet {
			head, _ := f.Queue.Head()
			s.V.Set(s.V.Now() + clock.Time(s.WireTime(head.Size)))
			return s.DefaultPostDequeue(now, f)
		},
	}
}

// WF2Q returns Worst-case Fair Weighted Fair Queuing (WF²Q+, §4.1, Fig
// 2(a)) — the algorithm PIFO cannot express (§2.3). Rank is the virtual
// finish time; the predicate is (virtual_time >= virtual_start); the
// virtual clock advances by each transmission and jumps to the minimum
// start time among backlogged flows, which the PIEO list answers in O(1)
// via its eligibility metadata (MinSendTime).
func WF2Q() *sched.Program {
	return &sched.Program{
		Name: "wf2q+",
		DequeueTime: func(s *sched.Scheduler, now clock.Time) clock.Time {
			return s.V.Now()
		},
		OnIdle: func(s *sched.Scheduler, now clock.Time) bool {
			// Fig 2(a)'s idle-link rule: when backlogged flows exist but
			// none is eligible (a busy period starting after idle time
			// left every start ahead of V), jump the virtual clock to
			// the minimum start time.
			ms, ok := s.List.MinSendTime()
			if !ok || ms <= s.V.Now() {
				return false
			}
			s.V.Set(ms)
			return true
		},
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			head, _ := f.Queue.Head()
			// start = max(finish, V) only at busy-period starts; a
			// continuously backlogged flow's next packet starts exactly
			// at its previous finish (Fig 2(a)'s two cases).
			start := f.VirtualFinish
			if f.NewlyBacklogged {
				if v := uint64(s.V.Now()); v > start {
					start = v
				}
			}
			f.VirtualStart = start
			f.VirtualFinish = start + fqScale(s, f, head.Size)
			f.Rank = f.VirtualFinish
			f.SendTime = clock.Time(f.VirtualStart)
		},
		PostDequeue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) []flowq.Packet {
			p, ok := f.Queue.Pop()
			if !ok {
				panic("wf2q+: scheduled flow with empty queue")
			}
			// Re-enqueue the serviced flow first (its next packet's start
			// uses the pre-update V), so the Fig 2(a) virtual-time floor
			// — V(t+x) = max(V(t)+x, min start among backlogged flows) —
			// sees every backlogged flow, including this one. The PIEO
			// list answers the min in O(1) from its eligibility metadata.
			if !f.Queue.Empty() {
				s.EnqueueFlow(now, f)
			}
			minStart := clock.Never
			if ms, ok := s.List.MinSendTime(); ok {
				minStart = ms
			}
			s.V.OnTransmit(clock.Time(s.WireTime(p.Size)), minStart)
			f.LastScheduled = now
			return s.Burst(p)
		},
	}
}

// TokenBucket returns the classic non-work-conserving shaper (§4.2):
// each flow accumulates f.RateGbps tokens against a depth of f.Burst
// bytes; the send time of the head packet is deferred until the bucket
// covers it, and both rank and predicate are that send time, evaluated
// against the wall clock.
//
// The control plane should set Flow.Tokens = Flow.Burst when configuring
// a flow so its bucket starts full; otherwise the bucket fills from empty
// starting at simulation time zero.
func TokenBucket() *sched.Program {
	return &sched.Program{
		Name: "token-bucket",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			head, _ := f.Queue.Head()
			f.Tokens += f.RateGbps / 8 * float64(now-f.LastRefill)
			if f.Tokens > f.Burst {
				f.Tokens = f.Burst
			}
			sendTime := now
			if float64(head.Size) > f.Tokens {
				deficit := float64(head.Size) - f.Tokens
				// An unconfigured rate never covers the deficit: the flow
				// parks at clock.Never and arms no wake.
				sendTime = clock.After(now, deficit*8/f.RateGbps)
			}
			f.Tokens -= float64(head.Size)
			f.LastRefill = now
			f.Rank = uint64(sendTime)
			f.SendTime = sendTime
		},
	}
}

// RCSP returns Rate-Controlled Static-Priority queuing (§4.2): traffic
// shaping assigns each packet an eligibility time on arrival (the
// Packet.SendAt field), and among flows whose head packet is eligible,
// the highest static priority wins.
func RCSP() *sched.Program {
	return &sched.Program{
		Name: "rcsp",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			head, _ := f.Queue.Head()
			f.Rank = f.Priority
			f.SendTime = head.SendAt
		},
	}
}

// StrictPriority returns strict priority scheduling (§4.4, §4.5): rank is
// the flow's priority, predicate always true. PIEO emulates a plain
// priority queue this way.
func StrictPriority() *sched.Program {
	return &sched.Program{
		Name: "strict-priority",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			f.Rank = f.Priority
			f.SendTime = clock.Always
		},
	}
}

// AgeStarvedFlows is the §4.4 starvation-avoidance alarm: for every flow
// that has waited longer than threshold since it was last scheduled,
// asynchronously extract it, raise its priority one level (never past
// floor), and re-enqueue it. It returns the number of flows boosted.
// Callers invoke it from a periodic timer or any custom async event.
func AgeStarvedFlows(s *sched.Scheduler, now clock.Time, threshold clock.Time, floor uint64, ids []flowq.FlowID) int {
	boosted := 0
	for _, id := range ids {
		f := s.Flow(id)
		if !s.List.Contains(uint32(id)) {
			continue
		}
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
		Name: "sjf",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			f.Rank = f.Queue.Bytes()
			f.SendTime = clock.Always
		},
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
func EDF() *sched.Program {
	return &sched.Program{
		Name: "edf",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			head, _ := f.Queue.Head()
			f.Rank = uint64(head.Deadline)
			f.SendTime = clock.Always
		},
	}
}

// LSTF returns Least Slack Time First (§4.5, the near-universal scheduler
// of UPS): rank is the head packet's slack — time to deadline minus wire
// time — at enqueue.
func LSTF() *sched.Program {
	return &sched.Program{
		Name: "lstf",
		PreEnqueue: func(s *sched.Scheduler, now clock.Time, f *sched.Flow) {
			head, _ := f.Queue.Head()
			wire := s.WireTime(head.Size)
			slack := uint64(0)
			if head.Deadline > now+wire {
				slack = uint64(head.Deadline - now - wire)
			}
			f.Rank = slack
			f.SendTime = clock.Always
		},
	}
}

// FIFO returns plain arrival-order scheduling (§2.3's baseline
// primitive), expressed in PIEO by giving every flow the same rank: the
// list's FIFO tie-break does the rest. Packets across flows leave in
// flow-enqueue order, packets within a flow in arrival order.
func FIFO() *sched.Program {
	return &sched.Program{Name: "fifo"} // all defaults: rank 1, always eligible
}

// Pacer returns a per-packet pacing program (§1's "protocols that rely
// on very accurate packet pacing"), input-triggered: every packet carries
// its own precomputed release time in SendAt, and the flow adopts it as
// both rank and predicate.
func Pacer() *sched.Program {
	return &sched.Program{
		Name:  "pacer",
		Model: sched.InputTriggered,
		PrePacket: func(s *sched.Scheduler, now clock.Time, f *sched.Flow, p *flowq.Packet) {
			p.Rank = uint64(p.SendAt)
		},
	}
}
