package shard

import (
	"errors"
	"sync/atomic"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/supervise"
)

// panicEnqList wraps a shard's list so the NEXT EnqueueSeq panics
// while armed. Unlike the fault-injection hook — which fires BEFORE the
// protected function, so the insert's residency pre-count never runs —
// this panics INSIDE the list call, reproducing genuine mid-insert
// corruption: the entry is pre-counted as resident but absent from the
// salvage, the exact shape the phantom-loss accounting exists for.
type panicEnqList struct {
	shardList
	arm *atomic.Bool
}

func (p *panicEnqList) EnqueueSeq(e core.Entry, seq uint64) error {
	if p.arm.CompareAndSwap(true, false) {
		panic("induced mid-insert fault")
	}
	return p.shardList.EnqueueSeq(e, seq)
}

func newPanicEnqEngine(t *testing.T, n, k int) (*Engine, *atomic.Bool) {
	t.Helper()
	arm := &atomic.Bool{}
	e := newEngine(n, k, func(l *core.List) shardList {
		return &panicEnqList{shardList: l, arm: arm}
	})
	return e, arm
}

func ent(id uint32, rank uint64) core.Entry {
	return core.Entry{ID: id, Rank: rank, SendTime: 0}
}

// TestBatchMidQuarantinePhantomLoss: a mid-insert panic during
// EnqueueBatch pre-counts the in-flight entry as resident, so the
// quarantine's salvage reconciliation declares it lost — but the entry's
// fate belongs to Enqueue's probe loop, which reroutes it and restores
// its slot. The engine must unwind the phantom loss: exact size, zero
// LostEntries, and a patched fault event.
func TestBatchMidQuarantinePhantomLoss(t *testing.T) {
	e, arm := newPanicEnqEngine(t, 16, 1)
	if err := e.Enqueue(ent(1, 10)); err != nil {
		t.Fatal(err)
	}

	arm.Store(true)
	accepted, err := e.EnqueueBatch([]core.Entry{ent(2, 20), ent(3, 30), ent(4, 40)})
	if accepted != 0 {
		t.Fatalf("accepted = %d, want 0 (single shard quarantined mid-batch)", accepted)
	}
	if !errors.Is(err, core.ErrShardDown) {
		t.Fatalf("batch error = %v, want ErrShardDown", err)
	}
	// The in-flight entry's loss must be unwound: the salvage holds only
	// id 1, and nothing was silently dropped.
	if got := e.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 (the salvaged pre-fault entry)", got)
	}
	fs := e.FaultStats()
	if fs.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1", fs.Quarantines)
	}
	if fs.LostEntries != 0 {
		t.Fatalf("LostEntries = %d, want 0: the in-flight arrival was rerouted, not lost", fs.LostEntries)
	}
	for _, ev := range e.FaultEvents() {
		if ev.Op != OpRebuild && ev.Op != OpRecover && ev.Lost != 0 {
			t.Fatalf("quarantine event declares %d lost entries, want 0 after the phantom unwind", ev.Lost)
		}
	}

	// Recovery restores the salvaged entry exactly.
	if down := e.Recover(); down != 0 {
		t.Fatalf("Recover left %d shards down", down)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, ok := e.Dequeue(clock.Never - 1)
	if !ok || got.ID != 1 {
		t.Fatalf("post-recovery dequeue = %+v/%v, want id 1", got, ok)
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", e.Len())
	}
}

// TestEnqueuePhantomLossCounter: the single-Enqueue equivalent. The seed
// restored the capacity slot but left the LostEntries counter (and the
// event record) charged for an arrival whose fate the probe loop owns —
// conservation audits over the counters would overcount losses.
func TestEnqueuePhantomLossCounter(t *testing.T) {
	e, arm := newPanicEnqEngine(t, 16, 1)
	if err := e.Enqueue(ent(1, 10)); err != nil {
		t.Fatal(err)
	}
	arm.Store(true)
	if err := e.Enqueue(ent(2, 20)); !errors.Is(err, core.ErrShardDown) {
		t.Fatalf("Enqueue during induced fault = %v, want ErrShardDown", err)
	}
	fs := e.FaultStats()
	if fs.LostEntries != 0 {
		t.Fatalf("LostEntries = %d, want 0 (the arrival was rejected, not lost)", fs.LostEntries)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
	if e.Recover() != 0 {
		t.Fatal("shard did not recover")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerProbationLifecycle drives a quarantined engine through the
// full breaker arc on an injected clock: Open with the configured
// backoff, half-open after Recover, closed after the probe budget of
// real operations — with the MTTR surfaced in FaultStats and as an
// OpRecover event.
func TestBreakerProbationLifecycle(t *testing.T) {
	e, arm := newPanicEnqEngine(t, 64, 1)
	clk := &clock.Atomic{}
	e.SetClock(clk)
	e.SetBreakerConfig(supervise.BreakerConfig{
		BaseBackoff: 100, MaxBackoff: 800, ProbeBudget: 3, JitterPct: -1,
	})

	clk.AdvanceTo(1000)
	arm.Store(true)
	if err := e.Enqueue(ent(1, 10)); !errors.Is(err, core.ErrShardDown) {
		t.Fatalf("faulted enqueue = %v, want ErrShardDown", err)
	}
	h := e.Health()
	if h.DownShards != 1 || h.Shards[0].Phase != backend.BreakerOpen {
		t.Fatalf("post-trip health = %+v, want one Open shard", h)
	}
	if at := h.Shards[0].RetryAt; at != 1100 {
		t.Fatalf("RetryAt = %v, want 1100 (trip + base backoff)", at)
	}

	// Before the backoff expires, operations must NOT rebuild the shard.
	if err := e.Enqueue(ent(2, 20)); !errors.Is(err, core.ErrShardDown) {
		t.Fatalf("pre-backoff enqueue = %v, want ErrShardDown", err)
	}
	if e.FaultStats().DownShards != 1 {
		t.Fatal("shard rebuilt before its breaker backoff expired")
	}

	// At the reopen instant the next operation probes and rebuilds; the
	// shard rejoins half-open.
	clk.AdvanceTo(1100)
	if err := e.Enqueue(ent(3, 30)); err != nil {
		t.Fatalf("post-backoff enqueue = %v, want nil (shard rebuilt half-open)", err)
	}
	fs := e.FaultStats()
	if fs.DownShards != 0 || fs.Rebuilds != 1 {
		t.Fatalf("post-rebuild stats = %+v, want 0 down / 1 rebuild", fs)
	}
	// The rebuilding enqueue itself consumed one probe. Two more close it.
	clk.AdvanceTo(1500)
	for i := uint32(4); i <= 5; i++ {
		if err := e.Enqueue(ent(i, uint64(i)*10)); err != nil {
			t.Fatal(err)
		}
	}
	fs = e.FaultStats()
	if fs.HalfOpenShards != 0 || fs.Recoveries != 1 {
		t.Fatalf("post-probation stats = %+v, want closed with 1 recovery", fs)
	}
	if fs.MTTRTotal != 500 || fs.MTTRMax != 500 {
		t.Fatalf("MTTR = %v/%v, want 500 (close at 1500 − trip at 1000)", fs.MTTRTotal, fs.MTTRMax)
	}
	// MTTR is computable from the event log alone.
	recov, total, max := MTTR(e.FaultEvents())
	if recov != 1 || total != 500 || max != 500 {
		t.Fatalf("MTTR from events = %d/%v/%v, want 1/500/500", recov, total, max)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
