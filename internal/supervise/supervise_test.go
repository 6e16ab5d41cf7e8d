package supervise

import (
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
)

// TestBreakerLifecycle walks one full outage episode through the state
// machine on an explicit clock: trip → backoff → probe → probation →
// close, with the MTTR sample spanning the whole episode.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(0, BreakerConfig{BaseBackoff: 100, MaxBackoff: 800, ProbeBudget: 3, JitterPct: -1})
	if b.Phase() != backend.BreakerClosed {
		t.Fatalf("new breaker phase = %v, want closed", b.Phase())
	}

	b.Trip(1000)
	if b.Phase() != backend.BreakerOpen {
		t.Fatalf("phase after trip = %v, want open", b.Phase())
	}
	if got := b.ReopenAt(); got != 1100 {
		t.Fatalf("reopenAt = %v, want 1100 (trip + base backoff)", got)
	}
	if b.ReadyToProbe(1099) {
		t.Fatal("ready to probe before backoff expired")
	}
	if !b.ReadyToProbe(1100) {
		t.Fatal("not ready to probe at the backoff instant")
	}

	// A failed probe doubles the backoff.
	b.FailProbe(1100)
	if got := b.ReopenAt(); got != 1300 {
		t.Fatalf("reopenAt after failed probe = %v, want 1300 (+200)", got)
	}
	if b.Streak() != 2 {
		t.Fatalf("streak = %d, want 2", b.Streak())
	}

	// Successful rebuild: half-open, then three good ops close it.
	b.EnterProbation(1300)
	if b.Phase() != backend.BreakerHalfOpen {
		t.Fatalf("phase after rebuild = %v, want half-open", b.Phase())
	}
	for i := 0; i < 2; i++ {
		if closed, _ := b.ProbeOK(1400); closed {
			t.Fatalf("breaker closed after %d probes, budget is 3", i+1)
		}
	}
	closed, downtime := b.ProbeOK(1500)
	if !closed {
		t.Fatal("breaker did not close after exhausting the probe budget")
	}
	if downtime != 500 {
		t.Fatalf("MTTR sample = %v, want 500 (close at 1500 − trip at 1000)", downtime)
	}
	if b.Phase() != backend.BreakerClosed || b.Streak() != 0 {
		t.Fatalf("post-close state: phase=%v streak=%d, want closed/0", b.Phase(), b.Streak())
	}
}

// TestBreakerProbationFailure: a trip during probation re-opens the
// breaker with the streak preserved, so the backoff keeps growing and
// the episode's MTTR keeps accumulating from the original trip.
func TestBreakerProbationFailure(t *testing.T) {
	b := NewBreaker(3, BreakerConfig{BaseBackoff: 10, MaxBackoff: 80, ProbeBudget: 4, JitterPct: -1})
	b.Trip(100) // streak 1, reopen at 110
	b.EnterProbation(110)
	if closed, _ := b.ProbeOK(111); closed {
		t.Fatal("closed with probes left")
	}
	b.Trip(112) // probation failure: streak 2
	if b.Phase() != backend.BreakerOpen || b.Streak() != 2 {
		t.Fatalf("after probation failure: phase=%v streak=%d, want open/2", b.Phase(), b.Streak())
	}
	if got := b.ReopenAt(); got != 112+20 {
		t.Fatalf("reopenAt = %v, want 132 (doubled backoff)", got)
	}
	b.EnterProbation(132)
	for i := 0; i < 3; i++ {
		b.ProbeOK(140)
	}
	closed, downtime := b.ProbeOK(150)
	if !closed || downtime != 50 {
		t.Fatalf("episode close = %v/%v, want true/50 (150 − original trip 100)", closed, downtime)
	}
}

// TestBreakerBackoffCapAndJitter: the exponential growth caps at
// MaxBackoff, and jitter is deterministic, bounded by JitterPct, and
// decorrelated across partition ids.
func TestBreakerBackoffCapAndJitter(t *testing.T) {
	plain := NewBreaker(0, BreakerConfig{BaseBackoff: 64, MaxBackoff: 4096, JitterPct: -1})
	for streak, want := range map[int]clock.Time{1: 64, 2: 128, 3: 256, 7: 4096, 20: 4096} {
		if got := plain.Backoff(streak); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", streak, got, want)
		}
	}

	j1 := NewBreaker(1, BreakerConfig{BaseBackoff: 100, MaxBackoff: 4096, JitterPct: 25})
	j2 := NewBreaker(2, BreakerConfig{BaseBackoff: 100, MaxBackoff: 4096, JitterPct: 25})
	differ := false
	for streak := 1; streak <= 6; streak++ {
		a, b2 := j1.Backoff(streak), j2.Backoff(streak)
		if a != j1.Backoff(streak) {
			t.Fatal("jitter is not deterministic")
		}
		base := clock.Time(100) << uint(streak-1)
		if a < base || a > base+base/4 {
			t.Fatalf("jittered Backoff(%d) = %v outside [base, base+25%%] = [%v, %v]", streak, a, base, base+base/4)
		}
		if a != b2 {
			differ = true
		}
	}
	if !differ {
		t.Fatal("jitter identical across partition ids; probes would synchronize")
	}
	if h := j1.Horizon(); h != 4096+4096/4 {
		t.Fatalf("Horizon = %v, want 5120", h)
	}
}

// TestBreakerDefaultsMatchLegacyBackoff: the zero config reproduces the
// engine's historical op-count schedule (base 64, cap 4096, 8 attempts).
func TestBreakerDefaultsMatchLegacyBackoff(t *testing.T) {
	cfg := NewBreaker(0, BreakerConfig{}).Config()
	if cfg.BaseBackoff != 64 || cfg.MaxBackoff != 4096 || cfg.MaxRebuildAttempts != 8 {
		t.Fatalf("defaults = %+v, want base 64 / max 4096 / attempts 8", cfg)
	}
	if cfg.ProbeBudget != 16 || cfg.JitterPct != 25 {
		t.Fatalf("defaults = %+v, want probe budget 16 / jitter 25", cfg)
	}
}
