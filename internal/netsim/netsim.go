// Package netsim is the discrete-event network substrate the evaluation
// runs on: a transmit link of fixed rate driven by a pluggable packet
// scheduler. It replaces the paper's 40 Gbps FPGA interface (§6.3) with a
// simulated wire on a nanosecond virtual clock — the scheduler logic under
// test is identical, only the MAC is simulated.
//
// The simulation loop is the paper's scheduling model (Fig 1): packets
// arrive into per-flow queues owned by the scheduler; whenever the link
// goes idle, the scheduler is asked for the next packet (the
// output-triggered dequeue path); a scheduler that currently has no
// eligible packet publishes a wake-up hint (its next future send_time)
// so the simulator re-polls exactly when eligibility can next change.
package netsim

import (
	"fmt"
	"math"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/eventq"
	"pieo/internal/flowq"
	"pieo/internal/pktgen"
)

// Link models a transmit link of fixed rate.
type Link struct {
	RateGbps float64
}

// TransmitTime returns the wire time of a packet of the given size in
// simulated nanoseconds (at least 1).
func (l Link) TransmitTime(size uint32) clock.Time {
	if l.RateGbps <= 0 {
		panic(fmt.Sprintf("netsim: link rate must be positive, got %v", l.RateGbps))
	}
	ns := math.Round(float64(size) * 8 / l.RateGbps)
	if ns < 1 {
		ns = 1
	}
	return clock.Time(ns)
}

// Scheduler is the contract a packet scheduler offers the simulator:
// sched.Scheduler and hier.Hierarchy implement all of it.
type Scheduler interface {
	WakeHinter
	FaultReporter
	// OnArrival delivers a packet to its flow queue at time now.
	OnArrival(now clock.Time, p flowq.Packet)
	// NextPacket picks the packet to transmit when the link goes idle
	// at time now, or ok=false if nothing is eligible.
	NextPacket(now clock.Time) (flowq.Packet, bool)
}

// WakeHinter is the wake part of Scheduler: when NextPacket finds
// nothing eligible, the simulator polls again at the hinted instant
// instead of spinning.
type WakeHinter interface {
	// NextWake returns the earliest future time at which NextPacket
	// could succeed, or ok=false if no such time is known.
	NextWake(now clock.Time) (clock.Time, bool)
}

// BackendReporter is implemented by schedulers built over a pluggable
// ordered-list backend that can summarize its operation counters. The
// simulator does not ask for it; it stays declared because the
// benchmark's tracing wrapper names it.
type BackendReporter interface {
	BackendStats() backend.Stats
}

// FaultReporter is the fault part of Scheduler: the faults and
// admission decisions the scheduler counted instead of panicking.
type FaultReporter interface {
	FaultStats() backend.FaultStats
}

// Sim couples a link, a scheduler, and an event queue.
type Sim struct {
	// OnTransmit, if set, is invoked when a packet finishes
	// transmitting. Experiments hang their meters here.
	OnTransmit func(now clock.Time, p flowq.Packet)

	link   Link
	sched  Scheduler
	wall   clock.Wall
	events eventq.Queue

	busy      bool
	busySince clock.Time // start of the transmission on the wire, while busy
	busyNs    clock.Time // wire time of completed transmissions
	sent      uint64
	wakeAt    clock.Time
	hasWake   bool
}

// New creates a simulation over the given link and scheduler.
func New(link Link, sched Scheduler) *Sim {
	if sched == nil {
		panic("netsim: scheduler must not be nil")
	}
	return &Sim{link: link, sched: sched}
}

// Now returns the current simulated time.
func (s *Sim) Now() clock.Time { return s.wall.Now() }

// Sent returns the number of packets fully transmitted.
func (s *Sim) Sent() uint64 { return s.sent }

// FaultStats returns the scheduler's fault and admission counters.
func (s *Sim) FaultStats() backend.FaultStats { return s.sched.FaultStats() }

// Utilization returns the fraction of elapsed time the link was busy. A
// transmission still on the wire counts only up to the current instant,
// so the result is in [0, 1] wherever Run stopped.
func (s *Sim) Utilization() float64 {
	now := s.wall.Now()
	if now == 0 {
		return 0
	}
	busy := s.busyNs
	if s.busy {
		busy += now - s.busySince
	}
	return float64(busy) / float64(now)
}

// Inject schedules the packet arrivals produced by a generator merge.
func (s *Sim) Inject(arrivals []pktgen.Arrival) {
	for _, a := range arrivals {
		s.events.Push(a.At, eventq.Arrival, a.Pkt)
	}
}

// InjectOne schedules a single arrival.
func (s *Sim) InjectOne(at clock.Time, p flowq.Packet) {
	s.events.Push(at, eventq.Arrival, p)
}

// Run processes events until the queue is empty or simulated time would
// pass `until`. It returns the time of the last processed event.
func (s *Sim) Run(until clock.Time) clock.Time {
	for {
		at, ok := s.events.PeekTime()
		if !ok || at > until {
			return s.wall.Now()
		}
		ev, _ := s.events.Pop()
		s.wall.AdvanceTo(at)
		switch ev.Kind {
		case eventq.Arrival:
			s.sched.OnArrival(at, ev.Pkt)
		case eventq.TxDone:
			s.busy = false
			s.busyNs += at - s.busySince
			s.sent++
			if s.OnTransmit != nil {
				s.OnTransmit(at, ev.Pkt)
			}
		case eventq.Wake:
			if s.hasWake && s.wakeAt == at {
				s.hasWake = false
			}
		}
		// Whatever happened, the link may now have work: a packet
		// arrived, the wire went idle, or eligibility changed.
		s.tryTransmit(at)
	}
}

// tryTransmit asks the scheduler for work if the link is idle, and
// otherwise arranges to be re-polled at the scheduler's wake hint.
func (s *Sim) tryTransmit(now clock.Time) {
	if s.busy {
		return
	}
	p, ok := s.sched.NextPacket(now)
	if !ok {
		s.armWake(now)
		return
	}
	s.busy = true
	s.busySince = now
	s.events.Push(now+s.link.TransmitTime(p.Size), eventq.TxDone, p)
}

// armWake schedules a poll at the scheduler's next-wake hint, keeping at
// most one outstanding wake and always the earliest known.
func (s *Sim) armWake(now clock.Time) {
	at, ok := s.sched.NextWake(now)
	if !ok || at <= now {
		return
	}
	if s.hasWake && s.wakeAt <= at {
		return
	}
	s.hasWake = true
	s.wakeAt = at
	s.events.Push(at, eventq.Wake, flowq.Packet{})
}
