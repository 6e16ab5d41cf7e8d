package experiments

import (
	"fmt"
	"math/rand"

	"pieo/internal/algos"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/sched"
	"pieo/internal/stats"
)

// PacingPrecision reproduces the §1 motivation: protocols that "require packets
// to be transmitted at precise times on the wire, in some cases at
// nanosecond-level precision", which software schedulers miss because of
// "non-deterministic software processing jitter and lack of high
// resolution software timers".
//
// The workload paces one flow at exact 10 µs intervals. The
// hardware-model scheduler (PIEO Pacer on the simulated NIC) releases
// each packet at its programmed instant. The software baseline models a
// kernel-timer dispatcher: release times are quantized to a timer tick
// and perturbed by dispatch jitter (log-normal-ish mixture with
// occasional scheduling hiccups) — the standard behavior the paper's
// citations measure. Reported: release-error distribution for each.
func PacingPrecision() *Table {
	const (
		nPackets = 2000
		// A pacing target that is NOT timer-tick aligned, so the
		// software baseline's quantization error is visible.
		interval = clock.Time(10_300)
	)

	// Hardware path: PIEO pacer in the NIC model.
	hwErrors := func() []float64 {
		s := sched.New(algos.Pacer(), 4, linkGbps)
		sim := netsim.New(netsim.Link{RateGbps: linkGbps}, s)
		var errs []float64
		sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
			// OnTransmit fires at completion; the release instant is one
			// wire time earlier.
			wire := clock.Time(float64(p.Size) * 8 / linkGbps)
			errs = append(errs, float64(now-wire-p.SendAt))
		}
		for i := 0; i < nPackets; i++ {
			sim.InjectOne(0, flowq.Packet{
				Flow: 1, Size: 1500,
				SendAt: clock.Time(i+1) * interval,
				Seq:    uint64(i),
			})
		}
		sim.Run(clock.Time(nPackets+10) * interval)
		return errs
	}()

	// Software baseline: timer-tick quantization + dispatch jitter.
	swErrors := func(tickNs uint64) []float64 {
		rng := rand.New(rand.NewSource(99))
		errs := make([]float64, 0, nPackets)
		busyUntil := uint64(0)
		for i := 0; i < nPackets; i++ {
			target := uint64(i+1) * uint64(interval)
			// The timer fires at the next tick boundary at-or-after the
			// target, plus wakeup/dispatch jitter.
			fire := (target + tickNs - 1) / tickNs * tickNs
			jitter := uint64(rng.ExpFloat64() * 1500) // ~1.5 us mean dispatch delay
			if rng.Intn(100) == 0 {
				jitter += 50_000 // an occasional 50 us scheduling hiccup
			}
			release := fire + jitter
			if release < busyUntil {
				release = busyUntil
			}
			busyUntil = release + 300 // wire time at 40G
			errs = append(errs, float64(release-target))
		}
		return errs
	}

	rows := [][]string{row("PIEO pacer (hardware model)", hwErrors)}
	rows = append(rows, row("software, 1 us timer tick", swErrors(1_000)))
	rows = append(rows, row("software, 10 us timer tick", swErrors(10_000)))
	return &Table{
		ID:      "pacing-precision",
		Title:   "Packet pacing precision: release-time error vs a 10 us pacing target (§1)",
		Columns: []string{"scheduler", "mean err ns", "p99 err ns", "max err ns"},
		Rows:    rows,
		Notes: []string{
			"the hardware-model pacer releases exactly at the programmed instants (0 ns error)",
			"the software baseline models timer quantization plus dispatch jitter per the §1 citations",
		},
	}
}

func row(name string, errs []float64) []string {
	s := stats.Summarize(errs)
	return []string{name,
		fmt.Sprintf("%.0f", s.Mean),
		fmt.Sprintf("%.0f", s.P99),
		fmt.Sprintf("%.0f", s.Max),
	}
}
