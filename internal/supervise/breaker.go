// Package supervise is the self-healing layer that drives the repo's
// fault-tolerance mechanisms without an operator in the loop
// (DESIGN.md §12). It supplies one piece, Breaker: a per-partition
// circuit breaker (closed → open → half-open → closed) with clock-driven
// exponential backoff, deterministic jitter, and a bounded half-open
// probe budget. The sharded engine replaces its raw op-count rebuild
// backoff with one Breaker per shard, which also yields MTTR accounting:
// the breaker knows when an outage episode began and when it fully
// closed.
//
// Everything here is driven by an injectable clock.Source — simulated
// ticks, engine operation counts, or wall time — so supervision
// behavior is exactly reproducible under test.
package supervise

import (
	"sync/atomic"

	"pieo/internal/backend"
	"pieo/internal/clock"
)

// BreakerConfig parameterizes one partition's circuit breaker. The zero
// value selects defaults chosen to match the sharded engine's
// historical op-count backoff (base 64, cap 4096, 8 rebuild attempts).
type BreakerConfig struct {
	// BaseBackoff is the delay before the first rebuild probe of an
	// outage episode, in clock ticks. Default 64.
	BaseBackoff clock.Time
	// MaxBackoff caps the exponential per-failure growth. Default 4096.
	MaxBackoff clock.Time
	// ProbeBudget is how many successful real operations a half-open
	// partition must serve before the breaker closes. Default 16.
	ProbeBudget int
	// JitterPct adds a deterministic 0..JitterPct percent of the backoff
	// on top of it, decorrelating simultaneous rebuild probes across
	// partitions without sacrificing replayability (the jitter is a hash
	// of partition index and failure streak, not a random draw).
	// Default 25; negative disables jitter entirely.
	JitterPct int
	// MaxRebuildAttempts bounds how many failed rebuilds an owner should
	// tolerate before abandoning the partition's salvage (the breaker
	// itself never gives up — this is advisory state for the owner's
	// salvage policy). Default 8.
	MaxRebuildAttempts int
}

// withDefaults fills zero fields with the package defaults.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 64
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 4096
	}
	if c.MaxBackoff < c.BaseBackoff {
		c.MaxBackoff = c.BaseBackoff
	}
	if c.ProbeBudget == 0 {
		c.ProbeBudget = 16
	}
	if c.JitterPct == 0 {
		c.JitterPct = 25
	}
	if c.JitterPct < 0 {
		c.JitterPct = 0
	}
	if c.MaxRebuildAttempts == 0 {
		c.MaxRebuildAttempts = 8
	}
	return c
}

// Breaker is one partition's circuit breaker. The owner (the sharded
// engine) serializes all state transitions under the partition's own
// lock; the phase and the next-probe instant are additionally published
// through atomics so lock-free fast paths (the engine's per-operation
// rebuild poll) can pre-check them without taking the lock. A stale
// lock-free read costs a wasted probe attempt that re-validates under
// the lock — never a wrong transition (DESIGN.md §12).
type Breaker struct {
	cfg BreakerConfig
	id  int // partition index; seeds the deterministic jitter

	phase    atomic.Int32  // backend.BreakerPhase, published under the owner's lock
	reopenAt atomic.Uint64 // next rebuild-probe instant while Open

	// Owner-lock-guarded episode state.
	streak     int        // consecutive failures this episode (backoff exponent)
	openedAt   clock.Time // first trip of the episode, for MTTR
	probesLeft int        // successful ops still needed to close, while HalfOpen
}

// NewBreaker builds a breaker for partition id with cfg's defaults
// applied. The breaker starts Closed.
func NewBreaker(id int, cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), id: id}
}

// Config returns the breaker's effective (defaults-applied) config.
func (b *Breaker) Config() BreakerConfig { return b.cfg }

// Phase returns the current breaker phase. Safe without the owner's
// lock; see the staleness contract in the type comment.
func (b *Breaker) Phase() backend.BreakerPhase {
	return backend.BreakerPhase(b.phase.Load())
}

// ReopenAt returns the next rebuild-probe instant (meaningful while
// Open). Safe without the owner's lock.
func (b *Breaker) ReopenAt() clock.Time {
	return clock.Time(b.reopenAt.Load())
}

// Streak returns the failure streak of the current episode. Owner's
// lock required.
func (b *Breaker) Streak() int { return b.streak }

// Trip opens the breaker at time now: the partition failed. From Closed
// this starts a new outage episode; from HalfOpen it extends the current
// one (a probation failure), preserving the streak so the backoff keeps
// growing. Owner's lock required.
func (b *Breaker) Trip(now clock.Time) {
	if b.Phase() == backend.BreakerClosed {
		b.openedAt = now
	}
	b.streak++
	b.probesLeft = 0
	b.reopenAt.Store(uint64(now + b.Backoff(b.streak)))
	b.phase.Store(int32(backend.BreakerOpen))
}

// FailProbe records a failed rebuild probe at time now: the streak grows
// and the next probe backs off further. Owner's lock required; only
// meaningful while Open.
func (b *Breaker) FailProbe(now clock.Time) {
	b.streak++
	b.reopenAt.Store(uint64(now + b.Backoff(b.streak)))
}

// ReadyToProbe reports whether an Open breaker's backoff has expired at
// time now — a rebuild probe is due. Safe without the owner's lock (the
// lock-free pre-check the engine polls per operation); callers must
// re-validate partition state under the lock before acting.
func (b *Breaker) ReadyToProbe(now clock.Time) bool {
	return b.Phase() == backend.BreakerOpen && uint64(now) >= b.reopenAt.Load()
}

// EnterProbation transitions Open → HalfOpen after a successful rebuild:
// the partition serves real traffic again, but full re-admission waits
// for ProbeBudget successful operations. Owner's lock required.
func (b *Breaker) EnterProbation(now clock.Time) {
	_ = now // probation entry is not an episode boundary; MTTR closes on ProbeOK
	b.probesLeft = b.cfg.ProbeBudget
	b.phase.Store(int32(backend.BreakerHalfOpen))
}

// ProbeOK records one successful operation on a HalfOpen partition.
// When the probe budget is exhausted the breaker closes: closed reports
// the transition and downtime is the full outage episode's duration
// (now − first trip), the per-episode MTTR sample. Calls in any other
// phase are no-ops. Owner's lock required.
func (b *Breaker) ProbeOK(now clock.Time) (closed bool, downtime clock.Time) {
	if b.Phase() != backend.BreakerHalfOpen {
		return false, 0
	}
	b.probesLeft--
	if b.probesLeft > 0 {
		return false, 0
	}
	downtime = now - b.openedAt
	b.streak = 0
	b.probesLeft = 0
	b.reopenAt.Store(0)
	b.phase.Store(int32(backend.BreakerClosed))
	return true, downtime
}

// Backoff returns the delay before probe number streak (1-based): the
// base doubled per prior failure, capped, plus deterministic jitter.
func (b *Breaker) Backoff(streak int) clock.Time {
	if streak < 1 {
		streak = 1
	}
	d := b.cfg.BaseBackoff
	for i := 1; i < streak && d < b.cfg.MaxBackoff; i++ {
		d <<= 1
	}
	if d > b.cfg.MaxBackoff {
		d = b.cfg.MaxBackoff
	}
	if b.cfg.JitterPct > 0 {
		h := splitmix64(uint64(b.id)<<32 ^ uint64(streak))
		d += d * clock.Time(h%uint64(b.cfg.JitterPct+1)) / 100
	}
	return d
}

// Horizon returns the worst-case single backoff interval — MaxBackoff
// plus maximal jitter. After the last fault, an Open partition is
// guaranteed a rebuild probe within one Horizon (and a convergence test
// can bound full recovery by Horizon × MaxRebuildAttempts).
func (b *Breaker) Horizon() clock.Time {
	d := b.cfg.MaxBackoff
	return d + d*clock.Time(b.cfg.JitterPct)/100
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash for
// the deterministic jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
