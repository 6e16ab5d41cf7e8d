// Shard fault isolation: the quarantine/salvage/rebuild state machine,
// supervised by a per-shard circuit breaker.
//
// A panic inside one shard's core.List — induced by the fault-injection
// hook, or genuine structural corruption (the engine itself panics on
// invariant violations like a dequeue losing an element a peek saw) —
// must not take down the whole engine: the other K-1 shards hold healthy
// traffic that a crash would destroy. Instead the failing shard is
// QUARANTINED under its own lock, in the panic's recover:
//
//  1. Salvage. A recover-guarded snapshot pulls whatever entries the
//     broken structure can still yield (deduplicated by ID — a panic
//     mid-shift can double-expose an element). Entries the snapshot
//     cannot recover are DECLARED LOST: subtracted from the engine size
//     and counted in FaultStats.LostEntries, so conservation audits can
//     reconcile exactly.
//  2. Degrade. The shard's list is dropped, its summaries are emptied
//     (the dequeue tournament then prunes it for free), and its downFlag
//     routes new traffic around it: enqueues probe forward to the next
//     healthy shard (those entries are tracked as "off-home" so point
//     lookups know to widen), point lookups treat salvaged IDs as
//     present-but-unavailable.
//  3. Rebuild, breaker-gated. Each shard carries a supervise.Breaker
//     (DESIGN.md §12): a quarantine trips it Open and schedules the
//     first rebuild probe after an exponentially-backed-off,
//     deterministically-jittered delay on the engine's supervision
//     clock (an injected clock.Source, or the degraded-mode op count by
//     default — identical to the historical op-count backoff). When the
//     probe is due the salvage is replayed with its original FIFO
//     sequence numbers into a fresh list, validated, and installed; a
//     failed replay grows the backoff. After MaxRebuildAttempts
//     failures the salvage itself is declared lost and the shard
//     rejoins empty — bounded unavailability is the contract, not
//     infinite retry.
//  4. Probation. A rebuilt shard rejoins HALF-OPEN: it carries real
//     traffic immediately, but the breaker only closes — resetting the
//     failure streak and recording the outage episode's MTTR — after a
//     bounded probe budget of successful protected operations. A panic
//     during probation re-trips the breaker with the streak preserved,
//     so a flapping shard backs off harder each round instead of
//     oscillating.
//
// Everything here assumes the engine's locking discipline: per-shard
// state is guarded by shard.mu, cross-shard state by atomics, and no two
// shard locks are ever held at once.
package shard

import (
	"fmt"
	"sync/atomic"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/supervise"
)

// Operation labels passed to the fault hook, identifying which datapath a
// protected section is about to run. OpRecover labels breaker-close
// events in the fault log (it is never passed to the hook).
const (
	OpEnqueue     = "enqueue"
	OpPeek        = "peek"
	OpDequeue     = "dequeue"
	OpDequeueFlow = "dequeue_flow"
	OpUpdateRank  = "update_rank"
	OpRebuild     = "rebuild"
	OpRecover     = "recover"
)

// maxFaultEvents bounds the diagnostic event log.
const maxFaultEvents = 1024

// faultCounters is the engine's resilience counter block.
type faultCounters struct {
	quarantines     atomic.Uint64
	rebuilds        atomic.Uint64
	rebuildFailures atomic.Uint64
	lostEntries     atomic.Uint64
	recoveries      atomic.Uint64
	mttrTotal       atomic.Uint64
	mttrMax         atomic.Uint64
}

// FaultStats is a point-in-time snapshot of the engine's fault-handling
// activity.
type FaultStats struct {
	// Quarantines counts shard panics survived by isolation.
	Quarantines uint64
	// Rebuilds counts successful salvage replays (shards that rejoined).
	Rebuilds uint64
	// RebuildFailures counts rebuild attempts that failed and backed off.
	RebuildFailures uint64
	// LostEntries counts elements declared lost: unrecoverable at salvage
	// time, or abandoned with a salvage after MaxRebuildAttempts.
	LostEntries uint64
	// Recoveries counts breaker-close events: outage episodes that ended
	// in full re-admission (the half-open probe budget exhausted).
	Recoveries uint64
	// MTTRTotal and MTTRMax aggregate per-episode downtime — from the
	// first trip of an episode to its breaker close — in supervision
	// clock ticks. MTTRTotal/Recoveries is the mean MTTR.
	MTTRTotal clock.Time
	MTTRMax   clock.Time
	// DownShards is the number of currently quarantined (breaker-Open)
	// shards; HalfOpenShards counts shards serving probation traffic.
	DownShards     int
	HalfOpenShards int
	// OffHomeEntries is the number of resident elements currently living
	// away from their hash-home shard (rehashed around a quarantine).
	OffHomeEntries int64
}

// FaultStats returns the engine's resilience counters.
func (e *Engine) FaultStats() FaultStats {
	return FaultStats{
		Quarantines:     e.fstats.quarantines.Load(),
		Rebuilds:        e.fstats.rebuilds.Load(),
		RebuildFailures: e.fstats.rebuildFailures.Load(),
		LostEntries:     e.fstats.lostEntries.Load(),
		Recoveries:      e.fstats.recoveries.Load(),
		MTTRTotal:       clock.Time(e.fstats.mttrTotal.Load()),
		MTTRMax:         clock.Time(e.fstats.mttrMax.Load()),
		DownShards:      int(e.downShards.Load()),
		HalfOpenShards:  int(e.probation.Load()),
		OffHomeEntries:  e.offHome.Load(),
	}
}

// FaultEvent is one entry in the engine's diagnostic fault log. Events
// are stamped with the supervision clock, and recovery events carry the
// episode's downtime, so MTTR is computable from the log alone.
type FaultEvent struct {
	// Shard is the affected shard index.
	Shard int
	// Op labels the datapath that was running (Op* constants); OpRecover
	// marks a breaker close.
	Op string
	// Err is the panic value or rebuild error, stringified.
	Err string
	// Salvaged is how many entries the salvage recovered (quarantine
	// events) or replayed (rebuild events).
	Salvaged int
	// Lost is how many entries were declared lost by this event.
	Lost int
	// At is the supervision-clock instant the event was recorded
	// (injection instants for quarantines, recovery instants for
	// OpRebuild/OpRecover events).
	At clock.Time
	// Downtime is the outage episode's duration — breaker close minus
	// first trip — on OpRecover events; zero otherwise.
	Downtime clock.Time
}

// FaultEvents returns a copy of the fault log (bounded at maxFaultEvents).
func (e *Engine) FaultEvents() []FaultEvent {
	e.eventMu.Lock()
	defer e.eventMu.Unlock()
	out := make([]FaultEvent, len(e.events))
	copy(out, e.events)
	return out
}

// MTTR summarizes the recovery events in a fault log: how many outage
// episodes closed, and their total and maximum downtime. Together with
// FaultEvent.At this makes MTTR computable from the event log alone,
// with no live engine required.
func MTTR(events []FaultEvent) (recoveries int, total, max clock.Time) {
	for _, ev := range events {
		if ev.Op != OpRecover {
			continue
		}
		recoveries++
		total += ev.Downtime
		if ev.Downtime > max {
			max = ev.Downtime
		}
	}
	return recoveries, total, max
}

func (e *Engine) recordEvent(ev FaultEvent) {
	e.eventMu.Lock()
	if len(e.events) < maxFaultEvents {
		e.events = append(e.events, ev)
	}
	e.eventMu.Unlock()
}

// SetFaultHook installs a hook invoked at the top of every protected
// shard-list section with the shard index and operation label. A hook
// that panics exercises the quarantine machinery — that is its purpose
// (see internal/faultinject). It MUST be installed before the engine
// carries traffic; it is read without synchronization afterwards.
func (e *Engine) SetFaultHook(h func(shard int, op string)) { e.hook = h }

// SetClock installs the supervision time source the circuit breakers
// schedule rebuild probes against. When no clock is installed the
// engine derives one from its degraded-mode operation count, which
// reproduces the historical op-count backoff exactly (deterministic
// under single-threaded test drivers). Like SetFaultHook it MUST be
// called before the engine carries traffic; it is read without
// synchronization afterwards. Rebuild probes are evaluated on engine
// operations either way — an idle engine retries its shards on the
// next operation after the backoff expires.
func (e *Engine) SetClock(clk clock.Source) { e.clk = clk }

// SetBreakerConfig replaces every shard's circuit-breaker configuration
// (backoff schedule, probe budget, jitter, salvage-abandon bound). The
// zero config selects the defaults, which match the historical op-count
// schedule. MUST be called before the engine carries traffic: it
// re-creates the per-shard breakers in the Closed state.
func (e *Engine) SetBreakerConfig(cfg supervise.BreakerConfig) {
	e.bcfg = supervise.NewBreaker(0, cfg).Config()
	for i, sd := range e.shards {
		sd.brk = supervise.NewBreaker(i, cfg)
	}
}

// now reads the supervision clock: the injected source, or the
// degraded-mode operation count.
func (e *Engine) now() clock.Time {
	if e.clk != nil {
		return e.clk.Now()
	}
	return clock.Time(e.ops.Load())
}

// opTick advances the engine's operation clock and gives due rebuilds a
// chance to run. The clock only ticks while a shard is down — backoff
// windows on the default op-derived clock are measured in degraded-mode
// operations — and skipping the increment leaves the healthy hot path a
// single atomic load.
func (e *Engine) opTick() {
	if e.downShards.Load() != 0 {
		e.ops.Add(1)
		e.maybeRebuild()
	}
}

// maybeRebuild attempts every quarantined shard whose breaker backoff
// has expired. The unlocked pre-checks (downFlag, the rebuilding CAS
// guard, the breaker's published phase and reopen instant) keep the
// degraded-mode overhead to a few atomic loads per operation; tryRebuild
// re-validates under the lock.
func (e *Engine) maybeRebuild() {
	now := e.now()
	for i, sd := range e.shards {
		if !sd.downFlag.Load() || sd.rebuilding.Load() || !sd.brk.ReadyToProbe(now) {
			continue
		}
		e.tryRebuild(i, sd, false)
	}
}

// Recover forces an immediate rebuild attempt on every quarantined shard,
// ignoring backoff, and reports how many shards remain down. Callers use
// it to bound recovery latency once a fault storm has passed (a rebuild
// that is itself faulted still fails and backs off). Rebuilt shards
// rejoin half-open: real traffic closes their breakers.
func (e *Engine) Recover() int {
	for i, sd := range e.shards {
		if sd.downFlag.Load() {
			e.tryRebuild(i, sd, true)
		}
	}
	return int(e.downShards.Load())
}

// protect runs fn against the shard's list with panic isolation: a panic
// quarantines shard i and surfaces as core.ErrShardDown instead of
// unwinding through the caller. The caller must hold sd.mu and must have
// checked sd.down; fn must confine its effects to this shard plus
// engine-level counters it maintains exactly (see the residency fields).
//
// Every successful protected operation doubles as a health probe: while
// the shard is half-open it counts against the breaker's probe budget,
// and the operation that exhausts the budget closes the breaker and
// records the outage episode's MTTR. The healthy-path cost is one
// uncontended atomic load of the breaker phase (DESIGN.md §12).
func (e *Engine) protect(i int, sd *shard, op string, fn func(l shardList)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.quarantineLocked(i, sd, op, r)
			err = core.ErrShardDown
		}
	}()
	if e.hook != nil {
		e.hook(i, op)
	}
	fn(sd.list)
	if sd.brk.Phase() == backend.BreakerHalfOpen {
		now := e.now()
		if closed, downtime := sd.brk.ProbeOK(now); closed {
			e.probation.Add(-1)
			e.fstats.recoveries.Add(1)
			e.fstats.mttrTotal.Add(uint64(downtime))
			storeMax(&e.fstats.mttrMax, uint64(downtime))
			e.recordEvent(FaultEvent{Shard: i, Op: OpRecover, At: now, Downtime: downtime})
		}
	}
	return nil
}

// storeMax CAS-raises dst to v.
func storeMax(dst *atomic.Uint64, v uint64) {
	for {
		cur := dst.Load()
		if v <= cur || dst.CompareAndSwap(cur, v) {
			return
		}
	}
}

// quarantineLocked transitions shard i to the down state. Called from
// protect's recover with sd.mu held and the list in an unknown state.
func (e *Engine) quarantineLocked(i int, sd *shard, op string, cause any) {
	ents, seqs := salvageSnapshot(sd.list)
	stats := salvageStats(sd.list)

	// Deduplicate by ID: a panic mid-shift can expose an element twice in
	// the snapshot, and one copy of a queued element is the truth.
	ids := make(map[uint32]struct{}, len(ents))
	w := 0
	salvagedOffHome := 0
	for idx := range ents {
		id := ents[idx].ID
		if _, dup := ids[id]; dup {
			continue
		}
		ids[id] = struct{}{}
		ents[w], seqs[w] = ents[idx], seqs[idx]
		w++
		if e.homeIdx(id) != i {
			salvagedOffHome++
		}
	}
	ents, seqs = ents[:w], seqs[:w]

	// Entries the salvage could not recover are declared lost, charged
	// against the size counter so conservation holds; the off-home
	// counter is reconciled the same way (lost entries of unknown
	// identity might have been off-home, and the per-shard count knows
	// exactly how many were).
	lost := sd.resident - len(ents)
	if lost < 0 {
		lost = 0
	}
	e.offHome.Add(int64(salvagedOffHome - sd.offHomeResident))
	sd.offHomeResident = salvagedOffHome

	now := e.now()
	if sd.brk.Phase() == backend.BreakerHalfOpen {
		// A probation failure: the shard leaves the half-open pool and
		// the breaker re-opens with its failure streak preserved, so the
		// next backoff is longer than the last.
		e.probation.Add(-1)
	}
	sd.brk.Trip(now)

	sd.down = true
	sd.downFlag.Store(true)
	sd.list = nil
	sd.salvaged = ents
	sd.salvagedSeqs = seqs
	sd.salvageIDs = ids
	sd.resident = len(ents)
	addStats(&sd.statsBase, stats)
	sd.attempts = 0
	sd.minRank.Store(emptyRank)
	sd.minSend.Store(uint64(clock.Never))

	if lost > 0 {
		e.size.Add(int64(-lost))
		e.fstats.lostEntries.Add(uint64(lost))
	}
	e.downShards.Add(1)
	e.fstats.quarantines.Add(1)
	e.recordEvent(FaultEvent{
		Shard:    i,
		Op:       op,
		Err:      fmt.Sprint(cause),
		Salvaged: len(ents),
		Lost:     lost,
		At:       now,
	})
}

// undoPhantomLoss reverses the one-entry loss the salvage reconciliation
// charged for an in-flight arrival that never landed: its residency was
// pre-counted when the protected insert began, so the quarantine's
// resident-vs-salvage comparison declared it lost — but its fate belongs
// to the enqueue retry loop (which restores the capacity slot and probes
// onward), not to the quarantine ledger. The counter, the slot, and the
// latest quarantine event for the shard are all unwound, keeping the
// event log's loss accounting exact.
func (e *Engine) undoPhantomLoss(i int) {
	e.size.Add(1)
	e.fstats.lostEntries.Add(^uint64(0))
	e.eventMu.Lock()
	for k := len(e.events) - 1; k >= 0; k-- {
		ev := &e.events[k]
		if ev.Shard == i && ev.Op != OpRebuild && ev.Op != OpRecover {
			ev.Lost--
			break
		}
	}
	e.eventMu.Unlock()
}

// salvageSnapshot reads the broken list's contents, tolerating a snapshot
// that itself panics (the corruption may extend into the walk): whatever
// cannot be read is simply not salvaged.
func salvageSnapshot(l shardList) (ents []core.Entry, seqs []uint64) {
	defer func() {
		if recover() != nil {
			ents, seqs = nil, nil
		}
	}()
	return l.SnapshotWithSeq()
}

// salvageStats reads the broken list's datapath counters, best-effort.
func salvageStats(l shardList) (s core.Stats) {
	defer func() { _ = recover() }()
	return l.Stats()
}

// tryRebuild attempts to bring shard i back up. force skips the breaker
// backoff check (Recover). It reports whether the shard is up on return.
func (e *Engine) tryRebuild(i int, sd *shard, force bool) bool {
	if !sd.rebuilding.CompareAndSwap(false, true) {
		return false
	}
	defer sd.rebuilding.Store(false)
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if !sd.down {
		return true
	}
	now := e.now()
	if !force && !sd.brk.ReadyToProbe(now) {
		return false
	}

	fresh, rerr := e.replaySalvage(i, sd)
	if rerr != nil {
		sd.attempts++
		e.fstats.rebuildFailures.Add(1)
		sd.brk.FailProbe(now)
		if sd.attempts < e.bcfg.MaxRebuildAttempts {
			e.recordEvent(FaultEvent{Shard: i, Op: OpRebuild, Err: rerr.Error(), Salvaged: len(sd.salvaged), At: now})
			return false
		}
		// The salvage cannot be replayed: declare it lost and rejoin
		// empty rather than holding the shard down forever.
		lost := len(sd.salvaged)
		e.size.Add(int64(-lost))
		e.offHome.Add(int64(-sd.offHomeResident))
		e.fstats.lostEntries.Add(uint64(lost))
		e.recordEvent(FaultEvent{
			Shard: i,
			Op:    OpRebuild,
			Err:   fmt.Sprintf("salvage abandoned after %d attempts: %v", sd.attempts, rerr),
			Lost:  lost,
			At:    now,
		})
		fresh = e.newList()
		sd.resident = 0
		sd.offHomeResident = 0
	} else {
		// The replay's datapath work is rebuild overhead, not engine
		// operations; subtract it so statsBase+live stays the real
		// history.
		subStats(&sd.statsBase, fresh.Stats())
		e.fstats.rebuilds.Add(1)
		e.recordEvent(FaultEvent{Shard: i, Op: OpRebuild, Salvaged: len(sd.salvaged), At: now})
	}

	sd.list = fresh
	sd.salvaged, sd.salvagedSeqs, sd.salvageIDs = nil, nil, nil
	sd.attempts = 0
	sd.down = false
	sd.downFlag.Store(false)
	// The shard rejoins HALF-OPEN: live traffic through protect counts
	// down the probe budget, and only its exhaustion closes the breaker
	// (recording the episode's MTTR). An abandoned-salvage rejoin is
	// probationary too — the shard was just as faulty.
	sd.brk.EnterProbation(now)
	e.probation.Add(1)
	sd.publish()
	// The salvage was invisible to the next-eligible index while the shard
	// was down (raiseNextElig skips down shards); now that its elements are
	// dequeueable again the bound must cover them.
	e.tightenNextElig(clock.Time(sd.minSend.Load()))
	e.downShards.Add(-1)
	return true
}

// replaySalvage builds a fresh list and replays the salvage into it with
// the original FIFO sequence numbers, under the same fault-injection hook
// as live traffic (a rebuild can be faulted too) and a recover guard so a
// replay panic is a failed attempt, not a crash. Called with sd.mu held.
func (e *Engine) replaySalvage(i int, sd *shard) (l shardList, err error) {
	defer func() {
		if r := recover(); r != nil {
			l, err = nil, fmt.Errorf("rebuild panic: %v", r)
		}
	}()
	if e.hook != nil {
		e.hook(i, OpRebuild)
	}
	fresh := e.newList()
	for idx := range sd.salvaged {
		if rerr := fresh.EnqueueSeq(sd.salvaged[idx], sd.salvagedSeqs[idx]); rerr != nil {
			return nil, fmt.Errorf("replay of id %d: %w", sd.salvaged[idx].ID, rerr)
		}
	}
	if cerr := fresh.CheckInvariants(); cerr != nil {
		return nil, fmt.Errorf("rebuilt list invalid: %w", cerr)
	}
	return fresh, nil
}

// Health implements backend.Health: the supervision layer's monitoring
// surface. Occupancy/Capacity feed overload watermarks; per-shard
// breaker phase, failure streak, and next-retry instant expose the
// recovery state machine.
func (e *Engine) Health() backend.HealthReport {
	rep := backend.HealthReport{
		Occupancy:       e.Len(),
		Capacity:        e.capacity,
		DownShards:      int(e.downShards.Load()),
		ProbationShards: int(e.probation.Load()),
		Shards:          make([]backend.ShardHealth, len(e.shards)),
	}
	for i, sd := range e.shards {
		sd.mu.Lock()
		rep.Shards[i] = backend.ShardHealth{
			Index:         i,
			Up:            !sd.down,
			Phase:         sd.brk.Phase(),
			FailureStreak: sd.brk.Streak(),
			Occupancy:     sd.resident,
			RetryAt:       sd.brk.ReopenAt(),
		}
		sd.mu.Unlock()
	}
	return rep
}

// salvageHas reports whether id sits in sd's salvage, taking the lock
// itself (for callers probing an unlocked down shard).
func (e *Engine) salvageHas(sd *shard, id uint32) bool {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.down && mapHas(sd.salvageIDs, id)
}

func mapHas(m map[uint32]struct{}, id uint32) bool {
	_, ok := m[id]
	return ok
}

// residentAway reports whether id is resident anywhere its home shard's
// own duplicate check cannot see: another shard's live list, or any
// shard's salvage. Only consulted in degraded mode — it walks the shards,
// which is exactly the cost exact duplicate detection requires once the
// clean partitioning is suspended.
func (e *Engine) residentAway(id uint32, home int) bool {
	for i, sd := range e.shards {
		if i == home && !sd.downFlag.Load() {
			continue
		}
		sd.mu.Lock()
		var has bool
		if sd.down {
			has = mapHas(sd.salvageIDs, id)
		} else if i != home {
			has = sd.list.Contains(id)
		}
		sd.mu.Unlock()
		if has {
			return true
		}
	}
	return false
}
