package hwmodel

import "math"

// Additional target devices discussed in §6.2: the paper expects the
// design "to run at much higher clock rates on more powerful FPGAs
// [Stratix 10], but even more importantly, on an ASIC", citing PIFO's
// 1 GHz ASIC synthesis as the reference point.

// Stratix10 is Intel's Stratix 10 GX 2800-class part: ~933K ALMs and
// ~229 Mbit of M20K SRAM. Clock scaling vs Stratix V for this style of
// datapath is roughly 2x (14 nm vs 28 nm).
var Stratix10 = Device{
	Name:          "Stratix 10",
	ALMs:          933_000,
	SRAMBits:      229 * 1000 * 1000,
	SRAMBlockBits: 20 * 1000,
}

// ASIC is a notional 16 nm ASIC target. Logic is not ALM-bound there;
// we express its budget as a generous standard-cell equivalent so the
// fit computation is SRAM-bound, matching how ASIC schedulers are sized.
var ASIC = Device{
	Name:          "ASIC (16nm)",
	ALMs:          10_000_000, // standard-cell equivalent, effectively unbound
	SRAMBits:      256 * 1000 * 1000,
	SRAMBlockBits: 20 * 1000,
}

// clockScale maps a device to the factor applied to the Stratix V
// calibrated clock model.
func clockScale(d Device) float64 {
	switch d.Name {
	case Stratix10.Name:
		return 2.0
	case ASIC.Name:
		// PIFO clocks at 1 GHz on ASIC vs 57 MHz on the Stratix V for a
		// 1K instance; we conservatively apply a smaller factor to the
		// sqrt-shaped PIEO datapath and cap at 1 GHz below.
		return 8.0
	default:
		return 1.0
	}
}

// PIEOClockMHzOn estimates the PIEO clock for geometry g on device d,
// capped at the 1 GHz the paper uses for ASIC arithmetic.
func PIEOClockMHzOn(d Device, g Geometry) float64 {
	f := PIEOClockMHz(g) * clockScale(d)
	return math.Min(f, ASICClockMHz)
}
