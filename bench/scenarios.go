package main

import (
	"context"
	"errors"
	"math/rand"
	"time"

	cedar "repro"
	"repro/internal/benchcmp"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// scenarioSuite runs the committed scenario suite (testdata/scenarios)
// once per operation and diffs it against BENCH_scenarios.json.
type scenarioSuite struct {
	e    *env
	scs  []*scenario.Scenario
	base []scenario.Record
	rng  *rand.Rand // shuffles each pass; nil keeps the canonical order
}

func setupScenarioSuite(e *env) (instance, error) {
	scs, err := scenario.LoadDir(e.path("testdata/scenarios"))
	if err != nil {
		return nil, err
	}
	base, err := scenario.LoadCapture(e.path("BENCH_scenarios.json"))
	if err != nil {
		return nil, err
	}
	s := &scenarioSuite{e: e, scs: scs, base: base}
	if e.cfg.seed != 0 {
		s.rng = rand.New(rand.NewSource(e.cfg.seed))
	}
	return s, nil
}

func (s *scenarioSuite) measure(ctx context.Context, ph *phase) {
	sequential(s.e, ph, func(int) (time.Duration, int, error) {
		order := s.scs
		if s.rng != nil {
			order = append([]*scenario.Scenario(nil), s.scs...)
			s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var recs []scenario.Record
		var err error
		d := ph.tr.span("scenario-suite.op", 0, func(op int) {
			if ph.tr == nil {
				recs, err = scenario.RunAll(ctx, order, workers, false)
				return
			}
			type out struct {
				recs []scenario.Record
				err  error
			}
			outs := tracedJobs(ph, op, order, func(sc *scenario.Scenario) string {
				return "scenario.Run " + sc.Name
			}, func(sc *scenario.Scenario) out {
				r, err := scenario.Run(sc, false)
				return out{r, err}
			})
			for _, o := range outs {
				recs = append(recs, o.recs...)
				err = errors.Join(err, o.err)
			}
		})
		if err != nil {
			return d, 0, err
		}
		rep, err := scenario.Diff(s.base, recs)
		if err != nil {
			return d, 0, err
		}
		if err := rep.Err(); err != nil {
			return d, 0, err
		}
		for _, row := range rep.Rows {
			if row.Status == benchcmp.StatusNew {
				return d, 0, errors.New("record " + row.Name + " is not in BENCH_scenarios.json")
			}
		}
		return d, len(order), nil
	})
}

func (s *scenarioSuite) finish(ctx context.Context, phases []*phase) []counts {
	// Scenario records carry no layer counts, so each scenario runs once
	// more, untimed, with the options scenario.RunCtx gives it.
	type out struct {
		c   counts
		err error
	}
	outs := engine.Map(workers, s.scs, func(_ int, sc *scenario.Scenario) out {
		app, cfg, err := sc.Resolve()
		if err != nil {
			return out{err: err}
		}
		run, err := cedar.SimulateRunCtx(ctx, app, cfg, cedar.Options{Steps: sc.Steps, Seed: sc.Seed,
			Faults: sc.Plan, MaxCycles: sim.Time(sc.MaxCycles), Parallel: sc.Parallel})
		if err != nil {
			return out{err: err}
		}
		c := countsOf(run)
		c.snapshots = 1 // scenario extraction reads the run's registry snapshot
		return out{c: c}
	})
	var pass counts
	for _, o := range outs {
		if o.err != nil {
			s.e.fail("count pass: %v", o.err)
		}
		pass.add(o.c)
	}
	res := make([]counts, len(phases))
	for i, ph := range phases {
		res[i] = pass.scaled(float64(len(ph.lat)))
	}
	return res
}

// report adds the per-scenario run times of the traced phase.
func (s *scenarioSuite) report(m metricSet, _, traced *phase) {
	if traced != nil && len(traced.jobs) > 0 {
		m.set("scenario.run_p50_ms", median(traced.jobs)*1e3, "ms", len(traced.jobs))
		m.set("scenario.run_p98_ms", quantile(traced.jobs, 0.98)*1e3, "ms", len(traced.jobs))
	}
}

func (s *scenarioSuite) close() {}
