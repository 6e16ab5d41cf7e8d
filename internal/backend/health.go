package backend

import (
	"fmt"

	"pieo/internal/clock"
)

// BreakerPhase is the circuit-breaker state of one partition in a
// self-healing backend (DESIGN.md §12). The phase machine is the
// classic closed → open → half-open → closed cycle:
//
//   - Closed: the partition is healthy and serving traffic.
//   - Open: the partition is quarantined; traffic routes around it and
//     rebuild probes are gated by an exponential-backoff timer.
//   - HalfOpen: a rebuild succeeded and the partition carries real
//     traffic again, but full re-admission (streak reset, MTTR close)
//     waits for a bounded probe budget of successful operations.
//
// The enum lives in this package rather than internal/supervise so the
// Health capability below can reference it without backends importing
// the supervision layer.
type BreakerPhase int32

const (
	// BreakerClosed is the healthy steady state.
	BreakerClosed BreakerPhase = iota
	// BreakerOpen is the quarantined state: traffic routes around the
	// partition until the backoff timer readmits a rebuild probe.
	BreakerOpen
	// BreakerHalfOpen is the probation state after a successful rebuild:
	// real operations count down a probe budget before the breaker
	// closes and the outage episode's MTTR is recorded.
	BreakerHalfOpen
)

// String names the phase.
func (p BreakerPhase) String() string {
	switch p {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerPhase(%d)", int32(p))
	}
}

// ShardHealth is one partition's health snapshot.
type ShardHealth struct {
	// Index is the partition index (0 for unsharded backends).
	Index int
	// Up is false while the partition is quarantined (phase Open).
	Up bool
	// Phase is the partition's circuit-breaker phase.
	Phase BreakerPhase
	// FailureStreak counts consecutive failures in the current outage
	// episode — the exponent of the breaker's current backoff. Zero
	// while Closed.
	FailureStreak int
	// Occupancy is the number of elements resident on the partition
	// (including salvaged elements awaiting rebuild while Open).
	Occupancy int
	// RetryAt is the instant (on the backend's supervision clock) when
	// the next rebuild probe is due; meaningful only while Open.
	RetryAt clock.Time
}

// HealthReport is a point-in-time health snapshot of a backend: global
// occupancy against capacity plus per-partition breaker state.
type HealthReport struct {
	// Occupancy and Capacity describe the backend's fill level.
	// Capacity is 0 when the backend cannot report one.
	Occupancy int
	Capacity  int
	// DownShards counts partitions currently Open; ProbationShards
	// counts partitions currently HalfOpen.
	DownShards      int
	ProbationShards int
	// Shards holds one entry per partition.
	Shards []ShardHealth
}

// OccupancyFraction returns Occupancy/Capacity, or 0 when the capacity
// is unknown.
func (r HealthReport) OccupancyFraction() float64 {
	if r.Capacity <= 0 {
		return 0
	}
	return float64(r.Occupancy) / float64(r.Capacity)
}

// Health is implemented by backends that expose the supervision layer's
// health surface: per-partition breaker phase and occupancy.
// The sharded engine implements it natively; single-partition backends
// report one always-closed shard.
type Health interface {
	Health() HealthReport
}

// HealthOf returns b's health report when the backend (or a wrapper it
// exposes) implements the Health capability.
func HealthOf(b Backend) (HealthReport, bool) {
	if h, ok := b.(Health); ok {
		return h.Health(), true
	}
	return HealthReport{}, false
}
