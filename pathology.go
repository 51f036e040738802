package cedar

import (
	"repro/internal/metrics"
)

// Workload pathology classes the detectors below recognize. The names
// are the values a scenario's pathology: key declares; the scenario
// runner fails a run that does not show its declared class (see
// internal/scenario).
const (
	// PathologyHotSpot: the global-memory traffic concentrates on a
	// few modules (strided access aliasing the word-interleaved
	// mapping), so one module's queue serializes the machine.
	PathologyHotSpot = "hotspot"
	// PathologyBarrierConvoy: main tasks spend an outsized share of
	// the run spinning at loop finish barriers — uneven iteration
	// granularity turns every barrier into a convoy behind the
	// slowest straggler.
	PathologyBarrierConvoy = "barrier-convoy"
	// PathologyPageStorm: concurrent page-fault handling dominates the
	// OS activity profile — the footprint-to-locality ratio makes the
	// machine fault continuously instead of computing.
	PathologyPageStorm = "page-storm"
)

// Detector thresholds, tuned against the paper workloads (none of
// which trip any detector) and the generator's pathological corners
// (which must). See TestPathologyDetectors and the calibration notes
// in internal/perfect/gen.
const (
	// hotSpotSkew is the min hottest-module / mean-module utilization
	// ratio. Uniform word-interleaved traffic sits near 1 (the paper
	// apps measure <= 1.6); a stride aliasing all accesses onto few of
	// 32 modules drives it toward the module count.
	hotSpotSkew = 4.0
	// hotSpotMinUtil keeps near-idle memories from counting: with a
	// handful of accesses the skew is sampling noise, so the hottest
	// module must carry real traffic.
	hotSpotMinUtil = 0.01
	// convoyIterShare gates the convoy detector on parallel-loop
	// iteration work actually dominating the run (machine-average
	// share of CT x CEs in iteration bodies).
	convoyIterShare = 0.25
	// convoyExcessFrac is the min straggler excess: how much of the
	// completion time the busiest CE spends in iteration bodies beyond
	// the machine average. Balanced apps (the paper's have no work
	// jitter) sit near 0; a convoy serializes every barrier behind the
	// straggler.
	convoyExcessFrac = 0.20
	// stormFrac is the min concurrent+sequential page-fault share of
	// completion time, per-CE average. Table 2's worst real case
	// (FLO52's pg flt (c)) is ~11%.
	stormFrac = 0.25
)

// Pathologies inspects a completed run's accounting and returns the
// pathology classes it exhibits, in the constants' declaration order
// (an empty slice for a healthy run). Detection is deterministic: the
// same run yields the same labels, which is what lets gen.ShrinkApp
// shrink a generated workload against "still pathological" as the
// predicate.
func (r *Run) Pathologies() []string {
	var out []string
	if r.hotSpot() {
		out = append(out, PathologyHotSpot)
	}
	if r.barrierConvoy() {
		out = append(out, PathologyBarrierConvoy)
	}
	if r.pageStorm() {
		out = append(out, PathologyPageStorm)
	}
	return out
}

// hotSpot reports whether global-memory traffic concentrated on few
// modules: whole-run busy fractions come from the module calendars at
// the kernel's final time.
func (r *Run) hotSpot() bool {
	mean, max := r.Machine.GM.UtilizationSummary(r.Machine.Kernel.Now())
	return mean > 0 && max >= hotSpotMinUtil && max/mean >= hotSpotSkew
}

// barrierConvoy reports whether the run's parallel loops serialize
// behind a straggler. The signature in the accounting is iteration-
// time imbalance: every other CE runs out of iterations and sits at
// the finish barrier (lead barrier-wait, helper idle) while the
// busiest CE keeps executing, so the straggler's iteration time runs
// far past the machine average.
func (r *Run) barrierConvoy() bool {
	res := r.Result
	if res.CT <= 0 || len(res.Accounts) == 0 {
		return false
	}
	var sum, max float64
	for _, a := range res.Accounts {
		li := float64(a.Get(metrics.CatLoopIter))
		sum += li
		if li > max {
			max = li
		}
	}
	mean := sum / float64(len(res.Accounts))
	ct := float64(res.CT)
	return mean/ct >= convoyIterShare && (max-mean)/ct >= convoyExcessFrac
}

// pageStorm reports whether page-fault handling dominates the OS
// profile: the per-CE average share of completion time spent in
// concurrent or sequential fault service.
func (r *Run) pageStorm() bool {
	res := r.Result
	if res.CT <= 0 {
		return false
	}
	flt := float64(res.OS.Time[metrics.OSPgFltConc] + res.OS.Time[metrics.OSPgFltSeq])
	perCE := flt / float64(res.Cfg.CEs())
	return perCE/float64(res.CT) >= stormFrac
}
