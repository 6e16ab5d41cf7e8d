package hwmodel

import (
	"math"
	"testing"
)

func TestStratix10FitsMore(t *testing.T) {
	v := MaxPIEOFit(StratixV)
	s10 := MaxPIEOFit(Stratix10)
	if s10 <= v {
		t.Fatalf("Stratix 10 max %d <= Stratix V max %d", s10, v)
	}
	// ~4.4x the SRAM should admit roughly 4x the elements (SRAM-bound).
	if ratio := float64(s10) / float64(v); ratio < 3 || ratio > 6 {
		t.Fatalf("Stratix10/StratixV fit ratio = %v, want ~4.4 (SRAM ratio)", ratio)
	}
}

func TestPIFOStillLogicBoundOnStratix10(t *testing.T) {
	// PIFO's linear logic keeps it tiny even on the bigger part: ~4x the
	// ALMs admit ~4x the elements — still thousands, not tens of
	// thousands.
	got := MaxPIFOFit(Stratix10)
	if got < 4000 || got > 10000 {
		t.Fatalf("PIFO max on Stratix 10 = %d, want a few thousand", got)
	}
	pieo := MaxPIEOFit(Stratix10)
	if pieo < 30*got {
		t.Fatalf("PIEO advantage on Stratix 10 = %dx, want >= 30x", pieo/got)
	}
}

func TestClockScalesUpAcrossDevices(t *testing.T) {
	g := PIEOGeometry(30000)
	v := PIEOClockMHzOn(StratixV, g)
	s10 := PIEOClockMHzOn(Stratix10, g)
	asic := PIEOClockMHzOn(ASIC, g)
	if !(v < s10 && s10 < asic) {
		t.Fatalf("clock ordering violated: %v %v %v", v, s10, asic)
	}
	if asic > ASICClockMHz {
		t.Fatalf("ASIC clock %v exceeds the 1 GHz cap", asic)
	}
}

func TestASICNsPerOpHeadline(t *testing.T) {
	// §6.2: "At 1 GHz clock rate, each primitive operation in PIEO would
	// only take 4 ns." Small instances reach the cap.
	g := PIEOGeometry(1024)
	f := PIEOClockMHzOn(ASIC, g)
	if math.Abs(f-ASICClockMHz) > 0.1 {
		t.Fatalf("ASIC clock at 1K = %v, want ~1000 (capped)", f)
	}
	if ns := NsPerOp(f, CyclesPerOp); math.Abs(ns-4) > 0.01 {
		t.Fatalf("ASIC ns/op = %v, want 4", ns)
	}
}
