package sched

import (
	"pieo/internal/flowq"
	"pieo/internal/idtab"
)

const maxFlowSlab = 512 // flows per slab, once there are that many flows

// newFlow adds a zeroed flow for id, which must be absent, and returns
// it. Flow structs are carved from slabs, so the flows a classifier
// allocates back to back sit back to back in memory, and a *Flow stays
// valid for the scheduler's lifetime: slabs are never moved, only
// added, and the scheduler never forgets a flow.
func (s *Scheduler) newFlow(id flowq.FlowID) *Flow {
	if len(s.slab) == 0 {
		// Each slab matches the flows so far, so the slabs' unused tail is
		// at most half the flows while there are few and at most
		// maxFlowSlab flows once there are many.
		s.slab = make([]Flow, min(max(len(s.all), 8), maxFlowSlab))
	}
	f := &s.slab[0]
	s.slab = s.slab[1:]
	s.flows.Insert(idtab.ID(id), f)
	s.all = append(s.all, f)
	return f
}
