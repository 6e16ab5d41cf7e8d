package backend

import "pieo/internal/core"

// CoreList adapts the paper-exact sublist implementation (core.List) to
// the Backend interface. Every operation is promoted from the embedded
// list; only Stats is reshaped, because core counts hardware work while
// the interface speaks in operations. It is the reference backend: the
// only one that is simultaneously exact, eligibility-complete, and
// hardware-costed.
type CoreList struct {
	*core.List
}

// NewCoreList creates a PIEO sublist backend with capacity n using the
// paper's √n geometry.
func NewCoreList(n int) *CoreList { return &CoreList{List: core.New(n)} }

// WrapCore adapts an existing core.List (e.g. one built with an explicit
// sublist geometry) to the Backend interface.
func WrapCore(l *core.List) *CoreList { return &CoreList{List: l} }

// Stats implements Backend by projecting the hardware counters onto the
// operation summary.
func (c *CoreList) Stats() Stats {
	s := c.List.Stats()
	return Stats{
		Enqueues:      s.Enqueues,
		Dequeues:      s.Dequeues,
		EmptyDequeues: s.EmptyDequeues,
		FlowDequeues:  s.FlowDequeues,
		RangeDequeues: s.RangeDequeues,
	}
}

// HardwareStats implements HardwareModeled with the full §5 datapath
// counters.
func (c *CoreList) HardwareStats() core.Stats { return c.List.Stats() }

// PeekMax implements Evictor in O(1) off the Ordered-Sublist-Array tail.
func (c *CoreList) PeekMax() (core.Entry, bool) { return c.List.MaxRankEntry() }

// EvictMax implements Evictor: the victim identified by PeekMax is
// extracted through the §5.2 dequeue(f) datapath.
func (c *CoreList) EvictMax() (core.Entry, bool) {
	e, ok := c.List.MaxRankEntry()
	if !ok {
		return core.Entry{}, false
	}
	return c.List.DequeueFlow(e.ID)
}

var _ Evictor = (*CoreList)(nil)

// The embedded list's EnqueueBatch/DequeueUpTo promote to the optional
// batch capability. They are the sequential loops the Batcher contract
// defines: the list has no batch path of its own.
var _ Batcher = (*CoreList)(nil)

func init() {
	Register("core", func(n int) Backend { return NewCoreList(n) })
}
