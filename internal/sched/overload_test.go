package sched

import (
	"strings"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
)

// rankedProg gives each flow its ID as rank (always eligible), so
// push-out victims are predictable.
func rankedProg() *Program {
	return &Program{
		Name: "ranked",
		PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
			f.Rank = uint64(f.ID)
			f.SendTime = clock.Always
		},
	}
}

// TestPushOutEvictsWorst: under AdmitPushOut a full list admits an
// arrival that outranks the resident maximum by evicting it, with the
// victim's backlog shed as declared drops; an arrival that does not
// outrank the new maximum is dropped and its own backlog shed.
func TestPushOutEvictsWorst(t *testing.T) {
	const cap = 8
	s := New(rankedProg(), cap, 40)
	s.Admission = backend.AdmitPushOut
	// IDs 10..17 fill the list.
	for id := flowq.FlowID(10); id < 10+cap; id++ {
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
	}
	if got := s.List.Len(); got != cap {
		t.Fatalf("list len = %d, want %d", got, cap)
	}
	// Rank 5 outranks every resident (10..17): 17 is evicted.
	s.OnArrival(0, flowq.Packet{Flow: 5, Size: 100})
	if !s.List.Contains(5) {
		t.Fatal("outranking arrival was not admitted by push-out")
	}
	if s.List.Contains(17) {
		t.Fatal("worst-ranked resident survived push-out")
	}
	fs := s.FaultStats()
	if fs.AdmissionEvictions != 1 || fs.DroppedPackets != 1 {
		t.Fatalf("evictions=%d drops=%d, want 1/1 (victim's backlog shed)", fs.AdmissionEvictions, fs.DroppedPackets)
	}

	// Rank 20 does not outrank the worst resident (16): the arrival is
	// dropped, the resident set is untouched, and its backlog is shed.
	s.OnArrival(0, flowq.Packet{Flow: 20, Size: 100})
	if s.List.Contains(20) || !s.List.Contains(16) || s.List.Len() != cap {
		t.Fatalf("non-outranking arrival changed the list (len %d, has 20 %v, has 16 %v)",
			s.List.Len(), s.List.Contains(20), s.List.Contains(16))
	}
	fs = s.FaultStats()
	if fs.AdmissionTailDrops != 1 || fs.AdmissionEvictions != 1 || fs.DroppedPackets != 2 {
		t.Fatalf("tail drops=%d evictions=%d drops=%d, want 1/1/2", fs.AdmissionTailDrops, fs.AdmissionEvictions, fs.DroppedPackets)
	}
	if got := s.Flow(20).Queue.Len(); got != 0 {
		t.Fatalf("dropped arrival kept %d queued packets, want 0", got)
	}
}

// TestSpinGuardTrip: a program that never makes progress (re-enqueues
// without transmitting) runs into the 2^22 spin guard, which is the one
// bound on NextPacket's retry loop: no packet, one counted trip, and a
// LastFault that names the program.
func TestSpinGuardTrip(t *testing.T) {
	prog := &Program{
		Name: "stuck",
		PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
			f.Rank = 1
			f.SendTime = clock.Always
		},
		PostDequeue: func(s *Scheduler, now clock.Time, f *Flow) []flowq.Packet {
			s.EnqueueFlow(now, f) // never transmits
			return nil
		},
	}
	s := New(prog, 16, 40)
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})

	if _, ok := s.NextPacket(0); ok {
		t.Fatal("stuck program produced a packet")
	}
	if got := s.FaultStats(); got != (backend.FaultStats{SpinGuardTrips: 1}) {
		t.Fatalf("FaultStats = %+v, want exactly one spin-guard trip", got)
	}
	if err := s.LastFault(); err == nil || !strings.Contains(err.Error(), `"stuck"`) {
		t.Fatalf("LastFault = %v, want it to name program \"stuck\"", err)
	}
	// The flow was not lost: it is still queued and still in the list.
	if !s.List.Contains(1) || s.Backlog() != 1 {
		t.Fatalf("stuck flow left the list (len %d, backlog %d)", s.List.Len(), s.Backlog())
	}
}
