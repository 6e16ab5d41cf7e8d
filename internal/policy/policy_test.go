package policy

import (
	"testing"

	"pieo/internal/clock"
	"pieo/internal/flowq"
)

// node returns a Node with a 4-way weight sum, 1 ns per byte on the
// wire, and minStart as its backlog's minimum start.
func node(minStart clock.Time) *Node {
	return &Node{SumWeights: 4, LinkRateGbps: 8, MinStart: func(clock.Time) clock.Time { return minStart }}
}

// head is a head packet of size bytes, with nothing stamped on it.
func head(size uint32) flowq.Packet { return flowq.Packet{Size: size} }

func catalogue() []*Policy {
	return []*Policy{RoundRobin(), StrictPriority(), WFQ(), WF2Q(), TokenBucket(), RCSP(), EDF(), LSTF(), SJF()}
}

// Rank on an element that was not served in between — an alarm, a
// deferred descent — gives the same answer, even after the node's
// virtual clock moved on.
func TestRankIsIdempotent(t *testing.T) {
	for _, p := range catalogue() {
		n := node(clock.Never)
		n.V.Set(700)
		a := Attrs{Weight: 2, Priority: 3, RateGbps: 8, Burst: 1000, VirtualFinish: 500}
		p.Rank(n, 100, &a, head(1500), 1500)
		a.Busy = true
		first := a
		n.V.Set(5000)
		p.Rank(n, 100, &a, head(1500), 1500)
		if a != first {
			t.Errorf("%s: second Rank gave %+v, first %+v", p.Name, a, first)
		}
	}
}

// An activation starts at max(finish, V); a busy element chains its next
// start from the finish Charge closed, corrected by the bytes sent.
func TestFairQueueingStartsAndCharges(t *testing.T) {
	for _, p := range []*Policy{WFQ(), WF2Q()} {
		n := node(clock.Never)
		n.V.Set(700)
		a := Attrs{Weight: 2, VirtualFinish: 500}
		p.Rank(n, 0, &a, head(1500), 1500) // scale: 1500 * 4 / 2
		if a.VirtualStart != 700 || a.Rank != 700+3000 {
			t.Fatalf("%s: activation start %d rank %d, want 700 and 3700", p.Name, a.VirtualStart, a.Rank)
		}
		a.Busy = true
		p.Charge(n, 0, &a, 1500, 100) // ranked for a quantum, sent 100 bytes
		if a.VirtualFinish != 700+200 || a.VirtualStart != a.VirtualFinish {
			t.Fatalf("%s: finish %d start %d, want both 900", p.Name, a.VirtualFinish, a.VirtualStart)
		}
		p.Rank(n, 0, &a, head(1500), 1500)
		if a.Rank != 900+3000 {
			t.Fatalf("%s: busy rank %d, want 3900", p.Name, a.Rank)
		}
	}
}

// WF²Q+'s virtual clock advances by the wire time, floored at the
// minimum start among the node's backlogged elements.
func TestWF2QAdvanceFloor(t *testing.T) {
	p := WF2Q()
	n := node(clock.Never)
	p.Advance(n, 0, 100)
	if got := n.V.Now(); got != 100 {
		t.Fatalf("V = %d with nothing backlogged, want 100", got)
	}
	n.MinStart = node(900).MinStart
	p.Advance(n, 0, 100)
	if got := n.V.Now(); got != 900 {
		t.Fatalf("V = %d under a floor of 900, want 900", got)
	}
}

// A token bucket whose rate can never cover the deficit parks its
// element at clock.Never instead of panicking, and charges only at
// transmission.
func TestTokenBucketParksAndChargesAtDequeue(t *testing.T) {
	p := TokenBucket()
	for _, rate := range []float64{0, -1, 1e-300} {
		a := Attrs{RateGbps: rate, Burst: 1500}
		p.Rank(node(clock.Never), 100, &a, head(1500), 1500)
		if a.SendTime != clock.Never || a.Rank != uint64(clock.Never) {
			t.Errorf("rate %v: send %v rank %d, want never", rate, a.SendTime, a.Rank)
		}
	}
	a := Attrs{RateGbps: 8, Burst: 1500, Tokens: 1500}
	p.Rank(node(clock.Never), 0, &a, head(1000), 1000)
	if a.SendTime != 0 || a.Tokens != 1500 {
		t.Fatalf("full bucket: send %v tokens %v, want 0 and no charge at Rank", a.SendTime, a.Tokens)
	}
	p.Charge(node(clock.Never), 50, &a, 1000, 1000)
	if a.Tokens != 500 || a.LastRefill != 50 {
		t.Fatalf("after Charge: tokens %v last refill %v, want 500 at 50 (capped refill)", a.Tokens, a.LastRefill)
	}
	p.Rank(node(clock.Never), 50, &a, head(1000), 1000) // 500 B deficit at 1 B/ns
	if a.SendTime != 550 {
		t.Fatalf("send %v, want 550", a.SendTime)
	}
}

// RCSP, EDF, LSTF and SJF rank by what the head packet carries and the
// bytes queued behind it.
func TestHeadPacketRanks(t *testing.T) {
	h := flowq.Packet{Size: 1000, SendAt: 40, Deadline: 3000}
	for _, c := range []struct {
		p          *Policy
		rank       uint64
		send       clock.Time
		now        clock.Time
		backlogged uint64
	}{
		{RCSP(), 3, 40, 0, 1000},
		{EDF(), 3000, clock.Always, 0, 1000},
		{LSTF(), 3000 - 500 - 1000, clock.Always, 500, 1000}, // deadline − now − wire
		{LSTF(), 0, clock.Always, 2500, 1000},                // past its deadline: no slack
		{SJF(), 4500, clock.Always, 0, 4500},
	} {
		a := Attrs{Priority: 3}
		c.p.Rank(node(clock.Never), c.now, &a, h, c.backlogged)
		if a.Rank != c.rank || a.SendTime != c.send {
			t.Errorf("%s at %v: rank %d send %v, want %d and %v", c.p.Name, c.now, a.Rank, a.SendTime, c.rank, c.send)
		}
	}
}
