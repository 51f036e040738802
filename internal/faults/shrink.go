package faults

import (
	"repro/internal/ddmin"
	"repro/internal/sim"
)

// Shrink minimizes a failing fault plan with delta debugging: the plan
// is reduced ddmin-style (drop event subsets, largest chunks
// first) and the surviving events are then simplified one knob at a
// time (times rounded to coarser grids, slow-down factors and stall
// spans snapped to canonical values). A candidate is kept only when
// failing still returns true for it, so the result reproduces the same
// failure with the fewest, plainest injections.
//
// failing must be deterministic (simulations are) and should return
// true when the candidate reproduces the original failure class.
// maxRuns bounds the number of failing invocations (<= 0 means a
// default of 200). Shrink returns the minimized plan and the number of
// candidate runs spent; if the input itself does not fail, it is
// returned unchanged.
func Shrink(plan Plan, failing func(Plan) bool, maxRuns int) (Plan, int) {
	if maxRuns <= 0 {
		maxRuns = 200
	}
	runs := 0
	test := func(cand Plan) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		return failing(cand)
	}
	if !test(plan) {
		return plan, runs
	}
	plan = ddmin.Minimize(plan, func(cand []Event) bool { return test(cand) })
	return simplifyEvents(plan, test), runs
}

// simplifyEvents canonicalizes each surviving event's knobs while the
// failure keeps reproducing: times snap to coarser grids, factors to
// small integers, spans to the parser default.
func simplifyEvents(plan Plan, test func(Plan) bool) Plan {
	plan = append(Plan(nil), plan...)
	try := func(i int, ev Event) bool {
		if ev == plan[i] {
			return false
		}
		cand := append(Plan(nil), plan...)
		cand[i] = ev
		if test(cand) {
			plan = cand
			return true
		}
		return false
	}
	for i := range plan {
		for _, grid := range []sim.Time{100_000, 10_000, 1_000} {
			ev := plan[i]
			ev.At = ev.At / grid * grid
			try(i, ev)
		}
		if plan[i].Factor > 2 {
			ev := plan[i]
			ev.Factor = 2
			try(i, ev)
		}
		if plan[i].Span > 0 && plan[i].Span != DefaultLockSpan {
			ev := plan[i]
			ev.Span = DefaultLockSpan
			try(i, ev)
		}
	}
	return plan
}
