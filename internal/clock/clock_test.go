package clock

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestWallZeroValue(t *testing.T) {
	var w Wall
	if got := w.Now(); got != 0 {
		t.Fatalf("zero Wall.Now() = %v, want 0", got)
	}
}

func TestWallAdvance(t *testing.T) {
	var w Wall
	w.Advance(120)
	w.Advance(30)
	if got := w.Now(); got != 150 {
		t.Fatalf("Now() = %v, want 150", got)
	}
}

func TestWallAdvanceTo(t *testing.T) {
	var w Wall
	w.AdvanceTo(1000)
	if got := w.Now(); got != 1000 {
		t.Fatalf("Now() = %v, want 1000", got)
	}
	w.AdvanceTo(1000) // same instant is allowed
	if got := w.Now(); got != 1000 {
		t.Fatalf("Now() = %v, want 1000 after no-op advance", got)
	}
}

func TestWallAdvanceToBackwardsNoOp(t *testing.T) {
	// A stale wake hint re-arming a past instant must clamp, not rewind
	// (and not crash): the clock is monotonic.
	var w Wall
	w.AdvanceTo(50)
	w.AdvanceTo(49)
	if got := w.Now(); got != 50 {
		t.Fatalf("Now() = %v after backwards AdvanceTo, want 50", got)
	}
	w.AdvanceTo(0)
	if got := w.Now(); got != 50 {
		t.Fatalf("Now() = %v after AdvanceTo(0), want 50", got)
	}
	w.AdvanceTo(51)
	if got := w.Now(); got != 51 {
		t.Fatalf("Now() = %v, want 51 (forward still works)", got)
	}
}

func TestWallNeverEdge(t *testing.T) {
	// The top of the time domain: a clock driven to the Never sentinel
	// must stay there (Never is greater than every reachable tick, so
	// every subsequent AdvanceTo clamps) and an Advance past it must not
	// be reachable by contract — simulators advance BY bounded deltas or
	// TO event times, never past Never.
	var w Wall
	w.AdvanceTo(Never - 1)
	if got := w.Now(); got != Never-1 {
		t.Fatalf("Now() = %v, want Never-1", got)
	}
	w.AdvanceTo(Never)
	if got := w.Now(); got != Never {
		t.Fatalf("Now() = %v, want Never", got)
	}
	w.AdvanceTo(12345) // stale hint far in the past: clamped
	if got := w.Now(); got != Never {
		t.Fatalf("Now() = %v after stale AdvanceTo, want Never", got)
	}
}

func TestNeverSentinelArithmetic(t *testing.T) {
	// The sentinel ordering the eligibility predicate and the timing
	// wheel rely on: Always <= t <= Never for every t, with Never-k
	// still comparing below Never (no wraparound in the usable range).
	if !(Always < Never) {
		t.Fatalf("Always < Never must hold")
	}
	for _, k := range []Time{1, 2, 1 << 20} {
		if got := Never - k; got >= Never {
			t.Fatalf("Never-%d = %v wrapped above Never", k, got)
		}
		if got := Never - k + k; got != Never {
			t.Fatalf("Never-%d+%d = %v, want Never", k, k, got)
		}
	}
	a := Always // via a variable: the constant expression would not compile
	if got := a - 1; got != Never {
		// uint64 wraparound below zero lands exactly on Never — the
		// reason subtraction from Always is forbidden in scheduler code.
		t.Fatalf("Always-1 = %v, want Never (documented wraparound)", got)
	}
}

func TestVirtualOnTransmitAdvance(t *testing.T) {
	var v Virtual
	v.OnTransmit(10, Never) // no backlogged flows: only +x
	if got := v.Now(); got != 10 {
		t.Fatalf("Now() = %v, want 10", got)
	}
}

func TestVirtualOnTransmitFloor(t *testing.T) {
	var v Virtual
	// min start time ahead of V+x: jump to it.
	v.OnTransmit(5, 42)
	if got := v.Now(); got != 42 {
		t.Fatalf("Now() = %v, want 42 (floor to min start)", got)
	}
	// min start time behind V+x: plain advance wins.
	v.OnTransmit(8, 5)
	if got := v.Now(); got != 50 {
		t.Fatalf("Now() = %v, want 50", got)
	}
}

func TestVirtualSetOnlyForward(t *testing.T) {
	var v Virtual
	v.Set(100)
	v.Set(10)
	if got := v.Now(); got != 100 {
		t.Fatalf("Now() = %v, want 100 (Set must not move backwards)", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{Always, "0"},
		{Never, "never"},
		{Time(123), "123"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

// Property: virtual time is monotonic under any sequence of OnTransmit
// calls, regardless of the (possibly stale) min-start values supplied.
func TestVirtualMonotonicProperty(t *testing.T) {
	f := func(steps []struct {
		X        uint16
		MinStart uint32
	}) bool {
		var v Virtual
		prev := v.Now()
		for _, s := range steps {
			v.OnTransmit(Time(s.X), Time(s.MinStart))
			if v.Now() < prev {
				return false
			}
			prev = v.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: wall clock is monotonic under any mix of Advance deltas.
func TestWallMonotonicProperty(t *testing.T) {
	f := func(deltas []uint16) bool {
		var w Wall
		prev := w.Now()
		for _, d := range deltas {
			w.Advance(Time(d))
			if w.Now() < prev {
				return false
			}
			prev = w.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAfterSaturates(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		t    Time
		d    float64
		want Time
	}{
		{"zero delay", 100, 0, 100},
		{"truncates", 100, 12.9, 112},
		{"negative zero", 100, math.Copysign(0, -1), 100},
		{"+Inf (rate 0)", 100, inf, Never},
		{"-Inf", 100, -inf, Never},
		{"NaN (0/0)", 100, math.NaN(), Never},
		{"negative (negative rate)", 100, -1, Never},
		{"2^63, amd64's out-of-range answer", 100, 1 << 63, 1<<63 + 100},
		{"2^64 overflows", 0, 1 << 64, Never},
		{"largest float below 2^64", 0, math.Nextafter(1<<64, 0), Time(1<<64 - 1<<11)},
		{"sum overflows", 1 << 63, 1 << 63, Never},
		{"sum would wrap to just below now", 4096, math.Nextafter(1<<64, 0), Never},
		{"from Never", Never, 1, Never},
		{"Never stays put", Never, 0, Never},
	}
	for _, c := range cases {
		if got := After(c.t, c.d); got != c.want {
			t.Errorf("%s: After(%v, %g) = %v, want %v", c.name, c.t, c.d, got, c.want)
		}
	}
}

// The Never-sentinel arithmetic as properties: the saturating add agrees
// with exact addition where that fits, absorbs at Never, never lands
// before either operand (no wrap), and is monotone in both arguments.
func TestAddProperties(t *testing.T) {
	exact := func(a, b Time) bool {
		s, carry := bits.Add64(uint64(a), uint64(b), 0)
		if carry != 0 {
			return a.Add(b) == Never
		}
		return a.Add(b) == Time(s)
	}
	absorbs := func(d Time) bool { return Never.Add(d) == Never && d.Add(Never) == Never }
	noWrap := func(a, b Time) bool { s := a.Add(b); return s >= a && s >= b }
	monotone := func(a, a2, b, b2 Time) bool {
		if a > a2 {
			a, a2 = a2, a
		}
		if b > b2 {
			b, b2 = b2, b
		}
		return a.Add(b) <= a2.Add(b) && a.Add(b) <= a.Add(b2) && a.Add(b) <= a2.Add(b2)
	}
	// quick draws uint64s uniformly, so about half of all pairs overflow:
	// both regimes and the boundary between them are exercised.
	for name, f := range map[string]any{"exact": exact, "absorbs": absorbs, "noWrap": noWrap, "monotone": monotone} {
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// After inherits both: monotone in the delay across the saturation edge.
	afterMonotone := func(a Time, x, y uint64) bool {
		dx, dy := float64(x)*2, float64(y)*2 // up to 2^65: crosses 2^64
		if dx > dy {
			dx, dy = dy, dx
		}
		return After(a, dx) <= After(a, dy) && After(a, dx) >= a
	}
	if err := quick.Check(afterMonotone, &quick.Config{MaxCount: 5000}); err != nil {
		t.Errorf("After monotone: %v", err)
	}
}
