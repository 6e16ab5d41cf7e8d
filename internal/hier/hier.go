// Package hier implements hierarchical packet scheduling with PIEO
// (§4.3). Flows are grouped into a tree: leaf children are flows with
// FIFO packet queues; every non-leaf node schedules its children with its
// own policy. A node's logical PIEO is always a band of a Partitioner: the
// node owns a contiguous child-index range [lo, hi] of a physical PIEO,
// and extracting from it is a DequeueRange whose predicate is the paper's
// (eligible) && (p.start <= f.index <= p.end). The physical PIEO is one
// per depth (New, NewOn) or one shared by every depth (NewPartitioned,
// NewPartitionedOn); nothing but Build tells the two apart.
//
// Dequeue starts at the root whenever the link goes idle and propagates
// down: the winner at each level names the logical PIEO to extract from
// at the next level (the hardware pushes the winner's id into an
// inter-level FIFO; this synchronous model simply descends). After the
// leaf transmits, every child on the path is charged, each is re-enqueued
// bottom-up while its subtree stays backlogged, and then each node on the
// path advances. Every node runs a policy of the catalogue the flat
// scheduler runs too (internal/policy).
package hier

import (
	"fmt"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/idtab"
	"pieo/internal/policy"
)

// Child is a schedulable element inside some parent's logical PIEO:
// either a leaf flow (Queue != nil) or an interior node (Node != nil).
// Its scheduling state is the catalogue's Attrs, the same a flat
// scheduler keeps per flow.
type Child struct {
	ID   uint32 // index within the physical PIEO (assigned by Build)
	Flow flowq.FlowID
	Node *Node // non-nil for interior children

	parent *Node // the node whose logical PIEO schedules this child

	Queue *flowq.Queue // non-nil for leaf children

	policy.Attrs

	// resident is true while the child sits in its parent's logical PIEO:
	// set by insertChild, cleared when descend extracts it. It answers
	// "is this child backlogged here" without a probe of the physical
	// structure — WF²Q+ asks once per child per transmitted packet.
	resident bool
}

// IsLeaf reports whether the child is a flow.
func (c *Child) IsLeaf() bool { return c.Queue != nil }

// NodeStats counts the logical-PIEO operations one node issued against
// its physical structure — the per-node view of backend.Stats, identical
// across the per-level and partitioned arrangements for the same traffic.
type NodeStats struct {
	Enqueues      uint64 // successful inserts into this node's logical PIEO
	Dequeues      uint64 // successful ranged extractions
	EmptyDequeues uint64 // ranged extractions that found nothing eligible
}

// Node is a non-leaf vertex of the scheduling tree. Its Policy schedules
// its children; the embedded policy.Node is the node as the policy sees
// it, with V its private fair-queueing virtual clock.
type Node struct {
	Name   string
	Policy *Policy
	policy.Node

	h        *Hierarchy
	depth    int // root = 0
	parent   *Node
	self     *Child // this node's entity in the parent's logical PIEO (nil at root)
	children []*Child
	pt       *Partitioner // the physical PIEO holding this node's children
	part     *Partition   // this node's band of it; children[i].ID == part.lo+i
	active   int          // children currently enqueued in this node's logical PIEO
	stats    NodeStats
	faults   backend.FaultStats // faults charged to THIS node
}

// Stats returns the node's logical-PIEO operation counters.
func (n *Node) Stats() NodeStats { return n.stats }

// FaultStats returns the faults charged to this node — the
// per-node breakdown of Hierarchy.FaultStats, so a chaos audit can
// assert where drops landed, not just that they happened.
func (n *Node) FaultStats() backend.FaultStats { return n.faults }

// Self returns this node's own child entity — the handle the control
// plane uses to configure how the node's parent schedules it (rate limit,
// weight, priority). It is nil for the root.
func (n *Node) Self() *Child { return n.self }

// AddNode creates an interior child scheduled by this node, with the
// given policy for its own children. Must be called before Build.
func (n *Node) AddNode(name string, p *Policy) *Node {
	n.h.mustNotBeBuilt()
	if p == nil || p.Rank == nil {
		panic("hier: node policy must not be nil and must rank")
	}
	child := &Child{parent: n, Attrs: policy.Attrs{Weight: 1, Quantum: 1500}}
	node := &Node{Name: name, Policy: p, h: n.h, depth: n.depth + 1, parent: n, self: child}
	child.Node = node
	n.children = append(n.children, child)
	n.h.interior++
	return node
}

// AddFlow creates a leaf flow child scheduled by this node. Must be
// called before Build.
func (n *Node) AddFlow(id flowq.FlowID) *Child {
	n.h.mustNotBeBuilt()
	if !n.h.leafIdx.Insert(idtab.ID(id), uint32(len(n.h.leaves))+1) {
		panic(fmt.Sprintf("hier: flow %d added twice", id))
	}
	child := &Child{Flow: id, parent: n, Queue: &flowq.Queue{}, Attrs: policy.Attrs{Weight: 1, Quantum: 1500}}
	n.children = append(n.children, child)
	n.h.leaves = append(n.h.leaves, child)
	return child
}

// Hierarchy is an n-level PIEO scheduler tree. It implements
// netsim.Scheduler and netsim.WakeHinter.
type Hierarchy struct {
	LinkRateGbps float64

	root      *Node
	factory   func(capacity int) backend.Backend
	interior  int       // interior nodes below the root
	nodesAt   [][]*Node // nodes per depth, BFS order
	wallNodes []*Node   // nodes without DequeueTime, whose send times are wall-clock wakes
	built     bool

	// The physical PIEOs: one per depth, or one shared by every depth
	// when partitioned (§4.2). Only Build reads partitioned.
	partitioned bool
	pts         []*Partitioner

	leaves  []*Child                      // leaf flows, in AddFlow order
	leafIdx idtab.Table[idtab.ID, uint32] // flow id -> index in leaves + 1

	// Scratch reused by every NextPacket so a descent allocates nothing:
	// the root-to-leaf path (deepest hop first) and the stack of children
	// each descend call set aside.
	path     []pathStep
	deferred []*Child

	faults  backend.FaultStats // fault counters
	lastErr error              // most recent fault
}

// New creates an empty hierarchy whose root schedules its children with
// the given policy, over the default paper-exact list backend per level.
func New(linkRateGbps float64, rootPolicy *Policy) *Hierarchy {
	return NewOn(linkRateGbps, rootPolicy, func(n int) backend.Backend {
		return backend.NewCoreList(n)
	})
}

// NewOn creates an empty hierarchy whose per-level physical PIEOs are
// built by factory at Build time (one call per level, sized to that
// level's child count). Any backend.Backend works; the descent relies
// only on the DequeueRange contract.
func NewOn(linkRateGbps float64, rootPolicy *Policy, factory func(capacity int) backend.Backend) *Hierarchy {
	if linkRateGbps <= 0 {
		panic(fmt.Sprintf("hier: link rate must be positive, got %v", linkRateGbps))
	}
	if rootPolicy == nil || rootPolicy.Rank == nil {
		panic("hier: root policy must not be nil and must rank")
	}
	if factory == nil {
		panic("hier: backend factory must not be nil")
	}
	h := &Hierarchy{
		LinkRateGbps: linkRateGbps,
		factory:      factory,
		leafIdx:      idtab.New[idtab.ID, uint32](0),
	}
	h.root = &Node{Name: "root", Policy: rootPolicy, h: h}
	return h
}

// NewPartitioned creates a hierarchy in the partitioned arrangement over
// the default paper-exact list: every node's logical PIEO is a contiguous
// ID band of one shared physical PIEO (§4.2) instead of a per-level list.
// As in every hierarchy, policy ranks must fit in 48 bits; a wider one
// fails the child's enqueue with ErrRankOverflow (see Partition).
func NewPartitioned(linkRateGbps float64, rootPolicy *Policy) *Hierarchy {
	return NewPartitionedOn(linkRateGbps, rootPolicy, func(n int) backend.Backend {
		return backend.NewCoreList(n)
	})
}

// NewPartitionedOn creates a partitioned hierarchy whose single
// shared physical PIEO is built by factory at Build time, sized to the
// total child count across every level. On the sharded engine, node
// dequeues compile to the per-shard DequeueRangeBelowSeq ranged
// tournament; any backend.Backend satisfying the DequeueRange contract
// works.
func NewPartitionedOn(linkRateGbps float64, rootPolicy *Policy, factory func(capacity int) backend.Backend) *Hierarchy {
	h := NewOn(linkRateGbps, rootPolicy, factory)
	h.partitioned = true
	return h
}

// FaultStats returns the fault counters.
func (h *Hierarchy) FaultStats() backend.FaultStats { return h.faults }

// LastFault returns the most recent fault, nil if none.
func (h *Hierarchy) LastFault() error { return h.lastErr }

// Root returns the root node.
func (h *Hierarchy) Root() *Node { return h.root }

func (h *Hierarchy) mustNotBeBuilt() {
	if h.built {
		panic("hier: topology is frozen after Build")
	}
}

// Build freezes the topology in one breadth-first pass: siblings get
// contiguous IDs, so each parent owns a band [lo, hi] of a Partitioner
// (the paper's logical partitioning) and finds a child by position. It is
// the one place the arrangements differ: per-level, each depth gets a
// fresh physical PIEO whose IDs restart at 0; partitioned, every node's
// band comes from one ID space over one shared PIEO, so a ranged dequeue
// on a node's band can never observe another node's children. It must be
// called exactly once before traffic.
func (h *Hierarchy) Build() {
	h.mustNotBeBuilt()
	h.built = true
	var shared *Partitioner
	if h.partitioned {
		// Every child is a leaf or an interior node.
		shared = NewPartitioner(h.factory(len(h.leaves) + h.interior))
		h.pts = append(h.pts, shared)
	}
	for level := []*Node{h.root}; len(level) > 0; {
		width := 0 // children at this depth
		for _, n := range level {
			if len(n.children) == 0 {
				panic(fmt.Sprintf("hier: node %q has no children", n.Name))
			}
			width += len(n.children)
			if n.Policy.DequeueTime == nil {
				h.wallNodes = append(h.wallNodes, n)
			}
		}
		pt := shared
		if pt == nil {
			pt = NewPartitioner(h.factory(width))
			h.pts = append(h.pts, pt)
		}
		var next []*Node
		for _, n := range level {
			part, err := pt.Alloc(len(n.children))
			if err != nil {
				panic(fmt.Sprintf("hier: allocate band for node %q: %v", n.Name, err))
			}
			n.pt, n.part = pt, part
			n.LinkRateGbps, n.MinStart = h.LinkRateGbps, part.minStart
			for i, c := range n.children {
				c.ID = part.lo + uint32(i)
				if c.Node != nil {
					next = append(next, c.Node)
				}
			}
		}
		h.nodesAt = append(h.nodesAt, level)
		level = next
	}
}

// extractEntry extracts the smallest-ranked eligible child of n's
// logical PIEO at predicate time t.
func (h *Hierarchy) extractEntry(n *Node, t clock.Time) (core.Entry, bool) {
	e, ok := n.pt.Dequeue(n.part, t)
	if ok {
		n.stats.Dequeues++
	} else {
		n.stats.EmptyDequeues++
	}
	return e, ok
}

// Leaf returns the child entity for flow id, for control-plane
// configuration.
func (h *Hierarchy) Leaf(id flowq.FlowID) *Child {
	i, ok := h.leafIdx.Get(idtab.ID(id))
	if !ok {
		panic(fmt.Sprintf("hier: unknown flow %d", id))
	}
	return h.leaves[i-1]
}

// Levels returns the number of scheduling levels.
func (h *Hierarchy) Levels() int { return len(h.nodesAt) }

// Level exposes the physical PIEO holding the children of depth-d nodes,
// for tests and resource accounting. In the partitioned arrangement every
// depth shares the one physical structure.
func (h *Hierarchy) Level(d int) backend.Backend { return h.nodesAt[d][0].pt.Backend() }

// Partitioner exposes the band allocator of the root's children, for
// tests and invariant checks: in the partitioned arrangement, the one
// every depth shares.
func (h *Hierarchy) Partitioner() *Partitioner { return h.pts[0] }

// Nodes returns every interior node in BFS order (root first). Only
// valid after Build.
func (h *Hierarchy) Nodes() []*Node {
	var out []*Node
	for _, level := range h.nodesAt {
		out = append(out, level...)
	}
	return out
}

// BackendStats returns the operation counters of the physical
// structures, summed.
func (h *Hierarchy) BackendStats() backend.Stats {
	var total backend.Stats
	for _, pt := range h.pts {
		total.Add(pt.Backend().Stats())
	}
	return total
}

// OnArrival implements netsim.Scheduler.
func (h *Hierarchy) OnArrival(now clock.Time, p flowq.Packet) {
	if !h.built {
		panic("hier: OnArrival before Build")
	}
	i, ok := h.leafIdx.Get(idtab.ID(p.Flow))
	if !ok {
		// Input from the wire, not a wiring bug: shed the packet as a
		// declared drop charged to the root.
		h.fault(h.root, backend.FaultStats{DroppedPackets: 1},
			fmt.Errorf("hier: packet for unconfigured flow %d: %w", p.Flow, core.ErrUnknownFlow))
		return
	}
	c := h.leaves[i-1]
	c.Queue.Push(p)
	// Not just "the queue was empty": a leaf or ancestor whose last insert
	// failed is backlogged but not resident, and this is
	// where it gets its retry.
	h.enqueueChild(now, c.parent, c)
}

// enqueueChild makes c resident in n's logical PIEO if it has something
// to send, then n itself in its parent's, up to the root: "logical queue
// went non-empty" propagating up the tree (§4.3 enqueue path). Children
// already resident are passed over, so the walk is idempotent and retries
// exactly the inserts that failed earlier.
func (h *Hierarchy) enqueueChild(now clock.Time, n *Node, c *Child) {
	for ; n != nil; n, c = n.parent, n.self {
		if c.resident {
			continue
		}
		if c.IsLeaf() && c.Queue.Empty() || !c.IsLeaf() && c.Node.active == 0 {
			c.Busy = false // idle: its next enqueue is an activation
			return
		}
		if n.SumWeights == 0 {
			n.SumWeights = n.weightSum()
		}
		head, backlog := expectedHead(c)
		n.Policy.Rank(&n.Node, now, &c.Attrs, head, backlog)
		c.Busy = true // until it goes idle, a Rank is a continuation
		if !h.insertChild(n, c) {
			return
		}
	}
}

// insertChild inserts c, ranked by the caller, into n's logical PIEO and
// charges the node's counters. On a failure c stays out and its subtree
// loses its turn until the next arrival below n or the next packet
// through n retries: it is counted in FaultStats, nothing crashes.
func (h *Hierarchy) insertChild(n *Node, c *Child) bool {
	if err := n.pt.Enqueue(n.part, core.Entry{ID: c.ID, Rank: c.Rank, SendTime: c.SendTime}); err != nil {
		h.fault(n, backend.FaultStats{EnqueueFailures: 1},
			fmt.Errorf("hier: enqueue child %d at depth %d: %w", c.ID, n.depth, err))
		return false
	}
	n.stats.Enqueues++
	n.active++
	c.resident = true
	return true
}

// fault is the one exit for an operation on n's logical PIEO that went
// wrong: it charges what to both the node and the hierarchy and
// remembers err.
func (h *Hierarchy) fault(n *Node, what backend.FaultStats, err error) {
	h.faults.Add(what)
	n.faults.Add(what)
	h.lastErr = err
}

// pathStep records one hop of a successful root-to-leaf descent.
type pathStep struct {
	n *Node
	c *Child
}

// NextPacket implements netsim.Scheduler: descend from the root PIEO,
// extracting each winner's logical PIEO at the next level, transmit the
// leaf's head packet, then charge the path, re-enqueue still-backlogged
// children bottom-up, and advance the path's nodes.
func (h *Hierarchy) NextPacket(now clock.Time) (flowq.Packet, bool) {
	if !h.built {
		panic("hier: NextPacket before Build")
	}
	// descend appends steps deepest-first: path[0] is the leaf hop,
	// path[len-1] the root hop.
	h.path = h.path[:0]
	if !h.descend(h.root, now) {
		return flowq.Packet{}, false
	}
	path := h.path
	leaf := path[0].c
	p, ok := leaf.Queue.Head()
	if !ok {
		panic(fmt.Sprintf("hier: leaf flow %d scheduled with empty queue", leaf.Flow))
	}
	// Charge the whole path FIRST, so every child's state (tokens,
	// virtual finish) is charged before any re-enqueue computes a fresh
	// rank/send time — re-enqueueing the leaf would otherwise propagate
	// upward past uncharged ancestors. The leaf is popped after, so
	// expectedHead still names what each child was ranked for: the
	// leaf's head, an interior child's Quantum.
	for _, step := range path {
		if charge := step.n.Policy.Charge; charge != nil {
			ranked, _ := expectedHead(step.c)
			charge(&step.n.Node, now, &step.c.Attrs, ranked.Size, p.Size)
		}
	}
	leaf.Queue.Pop()
	// Then re-enqueue bottom-up while each (logical) queue stays
	// non-empty; upward propagation inside enqueueChild is idempotent.
	for _, step := range path {
		h.enqueueChild(now, step.n, step.c)
	}
	// Advance each node last, so WF²Q+'s floor sees the served child
	// back in the node's PIEO (the paper's order, and the flat one).
	for _, step := range path {
		if step.n.Policy.Advance != nil {
			step.n.Policy.Advance(&step.n.Node, now, p.Size)
		}
	}
	return p, true
}

// descend extracts the smallest-ranked eligible child of n; for interior
// winners it recurses into their logical PIEOs and appends the hops of a
// successful descent to h.path. A winner whose subtree yields nothing
// eligible (a shaped child whose descendants are all deferred) is set
// aside on h.deferred and put back last, so one blocked branch cannot
// mask its siblings.
func (h *Hierarchy) descend(n *Node, now clock.Time) bool {
	mine := len(h.deferred) // nested calls leave the stack as they found it
	found := h.pick(n, now)
	// Put deferred children back; Rank is idempotent by contract, and
	// each of them is busy, so this is a continuation, not an activation.
	for _, c := range h.deferred[mine:] {
		head, backlog := expectedHead(c)
		n.Policy.Rank(&n.Node, now, &c.Attrs, head, backlog)
		h.insertChild(n, c)
	}
	h.deferred = h.deferred[:mine]
	return found
}

// pick is descend's extraction loop.
func (h *Hierarchy) pick(n *Node, now clock.Time) bool {
	t := now
	if n.Policy.DequeueTime != nil {
		t = n.Policy.DequeueTime(&n.Node, now)
	}
	retriedIdle := false
	for {
		e, ok := h.extractEntry(n, t)
		if !ok {
			if !retriedIdle && n.active > 0 && n.Policy.OnIdle != nil && n.Policy.OnIdle(&n.Node, now) {
				retriedIdle = true
				if n.Policy.DequeueTime != nil {
					t = n.Policy.DequeueTime(&n.Node, now)
				}
				continue
			}
			return false
		}
		// Children sit at their ID's offset in the node's band; an ID
		// below lo wraps past any length. Anything but a resident child
		// is a phantom, a core.ErrUnknownFlow condition: discard it before
		// touching the band's books and keep descending.
		i := e.ID - n.part.lo
		if uint64(i) >= uint64(len(n.children)) || !n.children[i].resident {
			h.fault(n, backend.FaultStats{UnknownFlows: 1},
				fmt.Errorf("%w: depth %d returned id %d, not a resident child", core.ErrUnknownFlow, n.depth, e.ID))
			continue
		}
		n.part.untrack(i)
		c := n.children[i]
		c.resident = false
		n.active--
		if c.IsLeaf() || h.descend(c.Node, now) {
			h.path = append(h.path, pathStep{n, c})
			return true
		}
		h.deferred = append(h.deferred, c)
	}
}

// NextWake implements netsim.WakeHinter: the earliest *future* send_time
// among the children of every node whose predicates live in the
// wall-clock domain (no DequeueTime). Children already eligible are
// skipped — if they could transmit, NextPacket would have found them; the
// blocker is a shaped child whose send_time lies ahead, at whatever node
// and depth it sits, next to eligible siblings or not.
func (h *Hierarchy) NextWake(now clock.Time) (clock.Time, bool) {
	best := clock.Never
	for _, n := range h.wallNodes {
		best = n.part.wakeAfter(0, now, best)
	}
	return best, best != clock.Never
}

// Backlog returns the total packets queued across all leaf flows.
func (h *Hierarchy) Backlog() int {
	total := 0
	for _, c := range h.leaves {
		total += c.Queue.Len()
	}
	return total
}
