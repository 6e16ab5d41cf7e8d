package main

import (
	"fmt"
	"math"

	"pieo"
)

// The correctness gate. A rep's own checks (conservation, FIFO, release
// instants, rank order, CheckInvariants) live in its finish(); this file
// holds what is common to all workloads, what compares reps with each
// other, and the replay against the reference model. Any failure makes
// the run exit non-zero without printing a metric.

// checkRep applies the checks every rep shares.
func checkRep(w *workload, r *repResult, fullScale bool) error {
	if r.packets <= 0 || r.attempted <= 0 {
		return fmt.Errorf("rep delivered %d packets of %d attempted operations", r.packets, r.attempted)
	}
	// Blocks are cut per worker, so each worker's tail may be lost.
	if len(r.blocks) < int(r.packets)/w.block-w.workers {
		return fmt.Errorf("%d timed blocks of %d packets for %d packets", len(r.blocks), w.block, r.packets)
	}
	for _, t := range r.tracers {
		if t.eligViol != 0 {
			return fmt.Errorf("list released %d entries with SendTime > now", t.eligViol)
		}
		if t.depth != 0 {
			return fmt.Errorf("tracer ended with %d open spans", t.depth)
		}
	}
	// Enforcement error is a property of a long enough window; a
	// scaled-down smoke run has not converged and is not judged on it.
	if fullScale && !math.IsNaN(w.maxRateErr) && !(r.rateErr <= w.maxRateErr) {
		return fmt.Errorf("rate_error_pct %.3f exceeds the workload's limit %.3f", r.rateErr, w.maxRateErr)
	}
	return nil
}

// checkAcrossReps holds the reps of one workload — untraced, reference
// and traced alike — to one schedule: the same digest proves both that
// the workload is deterministic for its seed and that the tracing
// wrappers did not change the path the code took.
func checkAcrossReps(w *workload, reps []*repResult) error {
	first := reps[0]
	for i, r := range reps[1:] {
		if r.packets != first.packets {
			return fmt.Errorf("rep %d delivered %d packets, rep 0 delivered %d", i+1, r.packets, first.packets)
		}
		if !first.hasDigest {
			continue
		}
		if r.digest != first.digest {
			return fmt.Errorf("schedule digest of rep %d (traced=%v) is %016x, rep 0 has %016x",
				i+1, r.tracers != nil, r.digest, first.digest)
		}
		if r.rateErr != first.rateErr && !(math.IsNaN(r.rateErr) && math.IsNaN(first.rateErr)) {
			return fmt.Errorf("rate_error_pct of rep %d is %v, rep 0 has %v", i+1, r.rateErr, first.rateErr)
		}
		for _, k := range []string{"core.hw_cycles_per_op", "core.sram_reads_per_op", "core.elem_compares_per_op"} {
			if r.layer[k] != first.layer[k] {
				return fmt.Errorf("%s of rep %d is %v, rep 0 has %v", k, i+1, r.layer[k], first.layer[k])
			}
		}
	}
	return nil
}

// Replay against the executable specification. internal/refmodel costs
// O(n) per operation, so it cannot hold list_hold's 2^18 entries; the
// same two op streams are replayed on a list small enough for it, and
// `core` must match it entry for entry.
const (
	replayOps      = 20000
	replayResident = 2048
)

// scanWake answers NextWakeAfter for a backend without an eligibility
// index, by scanning a snapshot.
type scanWake struct{ be pieo.Backend }

func (s scanWake) NextWakeAfter(now pieo.Time) pieo.Time {
	best := pieo.Never
	for _, e := range s.be.Snapshot() {
		if e.SendTime > now && e.SendTime < best {
			best = e.SendTime
		}
	}
	return best
}

func replayBackends() (coreList, ref pieo.Backend, err error) {
	if coreList, err = pieo.NewBackend("core", 2*replayResident); err != nil {
		return nil, nil, err
	}
	ref, err = pieo.NewBackend("ref", 2*replayResident)
	return coreList, ref, err
}

func replayHold(seed uint64) error {
	coreList, ref, err := replayBackends()
	if err != nil {
		return err
	}
	a, b := newHoldModel(coreList, seed, replayResident), newHoldModel(ref, seed, replayResident)
	for i := 0; i < replayOps/2; i++ {
		ea, oka := a.pair()
		eb, okb := b.pair()
		if ea != eb || oka != okb {
			return fmt.Errorf("replay vs ref: pair %d: core released %v (%v), ref %v (%v)", i, ea, oka, eb, okb)
		}
	}
	return nil
}

func replayPaced(seed uint64) error {
	coreList, ref, err := replayBackends()
	if err != nil {
		return err
	}
	a := newPacedModel(coreList, coreList.(pieo.EligIndexed), seed, replayResident)
	b := newPacedModel(ref, scanWake{ref}, seed, replayResident)
	var outA, outB []pieo.Entry
	a.runFor(replayOps/2, func(e pieo.Entry) { outA = append(outA, e) })
	b.runFor(replayOps/2, func(e pieo.Entry) { outB = append(outB, e) })
	if len(outA) != len(outB) || a.now != b.now {
		return fmt.Errorf("replay vs ref: core dispatched %d up to t=%d, ref %d up to t=%d", len(outA), a.now, len(outB), b.now)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			return fmt.Errorf("replay vs ref: dispatch %d: core released %v, ref %v", i, outA[i], outB[i])
		}
	}
	return nil
}
