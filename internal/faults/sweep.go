package faults

import (
	"math/rand"

	"repro/internal/sim"
)

// Window is an interval of virtual time in which page-fault services
// were observed on a healthy run. The schedule fuzzer aims fail-stops
// at these windows because that is where hand-off bugs live: an owner
// dying inside a service, a joiner dying parked on the service's cond.
type Window struct {
	Start, End sim.Time
}

// MergeWindows sorts spans and merges any that overlap or touch,
// returning the disjoint fault-service windows of a run. Input order
// does not matter; the result is ascending.
func MergeWindows(spans []Window) []Window {
	if len(spans) == 0 {
		return nil
	}
	ws := append([]Window(nil), spans...)
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Start < ws[j-1].Start; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// SweepTimes generates n fault plans whose fail-stop times sweep
// the given page-fault windows: edges (just before the service, at its
// start, mid-service, at and just past its end) and uniform points
// inside, optionally preceded by a CE slow-down or memory-module
// inflation that stretches the service and widens the race window —
// the shape of the schedule that originally exposed the fail-stop
// page-fault deadlock. ces lists the CE indices eligible to be killed
// (lead CE 0 is the caller's choice to include). The sweep is
// deterministic in seed; base is an always-on plan prefix every
// generated plan starts with.
func SweepTimes(base Plan, windows []Window, ces []int, gmModules int, seed int64, n int) []Plan {
	if len(windows) == 0 || len(ces) == 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]Plan, 0, n)
	for i := 0; i < n; i++ {
		w := windows[rng.Intn(len(windows))]
		at := sweepPoint(rng, w)
		plan := append(Plan(nil), base...)
		// Half the plans stretch the machine first, so services run
		// long and the kill lands inside windows the healthy timeline
		// does not have.
		if rng.Intn(2) == 0 {
			plan = append(plan, Event{
				Kind:   CESlow,
				Target: ces[rng.Intn(len(ces))],
				At:     earlier(w.Start, rng, 40_000),
				Factor: 1.25 + float64(rng.Intn(4))*0.75,
			})
		}
		if gmModules > 0 && rng.Intn(2) == 0 {
			plan = append(plan, Event{
				Kind:   ModuleSlow,
				Target: rng.Intn(gmModules),
				At:     earlier(w.Start, rng, 60_000),
				Factor: 2 + float64(rng.Intn(3)),
			})
		}
		plan = append(plan, Event{
			Kind:   CEFail,
			Target: ces[rng.Intn(len(ces))],
			At:     at,
		})
		// Occasionally a second kill in another window: compound
		// hand-off failures (a retaking joiner dying too).
		if rng.Intn(4) == 0 {
			w2 := windows[rng.Intn(len(windows))]
			plan = append(plan, Event{
				Kind:   CEFail,
				Target: ces[rng.Intn(len(ces))],
				At:     sweepPoint(rng, w2),
			})
		}
		out = append(out, plan)
	}
	return out
}

// sweepPoint picks a fail time for the window: its edges, its middle,
// or a uniform point inside, with a little jitter just outside either
// end — exactly the off-by-a-few-cycles schedules a wall-clock-seeded
// test only finds by luck.
func sweepPoint(rng *rand.Rand, w Window) sim.Time {
	span := w.End - w.Start
	if span < 1 {
		span = 1
	}
	switch rng.Intn(8) {
	case 0:
		return earlier(w.Start, rng, 64)
	case 1:
		return w.Start
	case 2:
		return w.Start + span/2
	case 3:
		return w.End
	case 4:
		return w.End + sim.Time(rng.Intn(64))
	default:
		return w.Start + sim.Time(rng.Int63n(int64(span)))
	}
}

// earlier returns a time up to slack cycles before t, never negative.
func earlier(t sim.Time, rng *rand.Rand, slack int64) sim.Time {
	d := sim.Time(rng.Int63n(slack + 1))
	if d > t {
		return 0
	}
	return t - d
}
