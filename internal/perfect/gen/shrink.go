package gen

import (
	"repro/internal/ddmin"
	"repro/internal/perfect"
)

// ShrinkApp minimizes a generated app while keep returns true for it —
// the pathology-preserving reducer that minimized the committed
// fuzz-*.scenario workloads (TestPathologyScenariosRediscovered in the
// root package re-derives them). The phase
// list is reduced ddmin-style first (whole phases are the biggest
// lever), then each surviving phase's knobs are simplified one at a
// time: repeats and iteration counts halved, work snapped to coarse
// grids, jitter/stride/vector knobs zeroed, and finally the footprint
// dropped to the validation floor. Every candidate is validated before
// keep sees it, so keep may simulate unconditionally.
//
// keep must be deterministic (simulations are). maxRuns bounds the
// keep invocations (<= 0 means a default of 150). Returns the
// minimized app and the number of keep calls spent; if the input
// itself does not satisfy keep, it is returned unchanged.
func ShrinkApp(a perfect.App, keep func(perfect.App) bool, maxRuns int) (perfect.App, int) {
	if maxRuns <= 0 {
		maxRuns = 150
	}
	runs := 0
	test := func(cand perfect.App) bool {
		if runs >= maxRuns || cand.Validate() != nil {
			return false
		}
		runs++
		return keep(cand)
	}
	if !test(a) {
		return a, runs
	}

	// Fewer phases first: dropping a phase shrinks everything it
	// implied (footprint floor, runtime, the textual form).
	a.Phases = ddmin.Minimize(a.Phases, func(cand []perfect.Phase) bool {
		trial := a
		trial.Phases = cand
		return test(trial)
	})

	// Knob simplification. Each try builds a candidate with its own
	// phase array so accepted and rejected mutations never alias.
	try := func(mut func(*perfect.App)) {
		cand := a
		cand.Phases = append([]perfect.Phase(nil), a.Phases...)
		mut(&cand)
		if test(cand) {
			a = cand
		}
	}

	for _, s := range []int{1, 2} {
		if a.Steps > s {
			try(func(c *perfect.App) { c.Steps = s })
		}
	}
	for i := range a.Phases {
		i := i
		// Halve multiplicities while the pathology survives.
		for _, field := range []func(*perfect.Phase) *int{
			func(p *perfect.Phase) *int { return &p.Repeat },
			func(p *perfect.Phase) *int { return &p.Outer },
			func(p *perfect.Phase) *int { return &p.Inner },
		} {
			for field(&a.Phases[i]) != nil && *field(&a.Phases[i]) > 1 {
				before := *field(&a.Phases[i])
				try(func(c *perfect.App) { *field(&c.Phases[i]) /= 2 })
				if *field(&a.Phases[i]) == before {
					break
				}
			}
		}
		for _, grid := range []int64{10_000, 1_000, 100} {
			if w := a.Phases[i].Work / grid * grid; w > 0 && w != a.Phases[i].Work {
				try(func(c *perfect.App) { c.Phases[i].Work = w })
			}
		}
		if a.Phases[i].WorkJitter > 0 {
			try(func(c *perfect.App) { c.Phases[i].WorkJitter = 0 })
		}
		if a.Phases[i].GMStride > 0 {
			try(func(c *perfect.App) { c.Phases[i].GMStride = 0 })
		}
		if a.Phases[i].GMWords > 1 {
			try(func(c *perfect.App) { c.Phases[i].GMWords = 1 })
		}
		if a.Phases[i].ClusWords > 0 {
			try(func(c *perfect.App) { c.Phases[i].ClusWords = 0 })
		}
		if a.Phases[i].SerialCycles > 0 {
			try(func(c *perfect.App) { c.Phases[i].SerialCycles = 0 })
		}
	}
	if floor := a.MinDataWords(); a.DataWords > floor {
		try(func(c *perfect.App) { c.DataWords = floor })
	}
	return a, runs
}
