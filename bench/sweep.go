package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/perfect"
)

// paperSweep runs the five paper applications across the paper's five
// configurations (25 simulations) once per operation.
type paperSweep struct {
	e      *env
	apps   []perfect.App
	opts   cedar.Options
	want   string        // the tables CSV every sweep must produce
	sweeps []*core.Sweep // one operation's result, for the model error
}

func setupPaperSweep(e *env) (instance, error) {
	p := &paperSweep{e: e, opts: cedar.Options{Parallel: workers, Seed: e.derivedSeed("paper-sweep")}}
	for _, a := range perfect.Apps() {
		app, err := e.resolve(a.Name)
		if err != nil {
			return nil, err
		}
		p.apps = append(p.apps, app)
	}
	if e.cfg.quick {
		p.opts.Steps = 1
	}
	if e.cfg.seed == 0 && !e.cfg.quick {
		golden, err := os.ReadFile(e.path("testdata/golden/tables.csv"))
		if err != nil {
			return nil, err
		}
		p.want = string(golden)
	}
	return p, nil
}

// sweepJob is one application on one configuration.
type sweepJob struct {
	app int
	cfg arch.Config
}

func (p *paperSweep) jobs() []sweepJob {
	var jobs []sweepJob
	for a := range p.apps {
		for _, cfg := range arch.PaperConfigs() {
			jobs = append(jobs, sweepJob{a, cfg})
		}
	}
	return jobs
}

func (p *paperSweep) measure(_ context.Context, ph *phase) {
	sequential(p.e, ph, func(int) (time.Duration, int, error) {
		var sweeps []*core.Sweep
		d := ph.tr.span("paper-sweep.op", 0, func(op int) {
			if ph.tr == nil {
				sweeps = cedar.Sweeps(p.apps, p.opts)
				return
			}
			// Traced: the same grid as cedar.Sweeps, one span per job.
			jobs := p.jobs()
			results := tracedJobs(ph, op, jobs, func(j sweepJob) string {
				return "cedar.Simulate " + p.apps[j.app].Name + "/" + j.cfg.Name
			}, func(j sweepJob) *core.Result { return cedar.Simulate(p.apps[j.app], j.cfg, p.opts) })
			sweeps = make([]*core.Sweep, len(p.apps))
			for a, app := range p.apps {
				sweeps[a] = &core.Sweep{App: app.Name, Results: map[int]*core.Result{}}
			}
			for i, j := range jobs {
				sweeps[j.app].Results[j.cfg.CEs()] = results[i]
			}
			for _, s := range sweeps {
				normalize(s)
			}
		})
		switch csv := tablesCSV(sweeps); {
		case p.want == "":
			p.want = csv
		case csv != p.want:
			return d, 0, fmt.Errorf("tables CSV differs from %s", p.reference())
		}
		p.sweeps = sweeps
		return d, len(p.apps) * len(arch.PaperConfigs()), nil
	})
}

func (p *paperSweep) reference() string {
	if p.e.cfg.seed == 0 && !p.e.cfg.quick {
		return "testdata/golden/tables.csv"
	}
	return "the first sweep of this input"
}

// normalize scales a sweep's seconds so the 1-processor completion time
// matches the paper's, as cedar.Sweeps does.
func normalize(s *core.Sweep) {
	base := s.Base()
	paper := perfect.PaperCT1(s.App)
	if base == nil || paper <= 0 {
		return
	}
	raw := arch.Seconds(int64(base.CT))
	if raw <= 0 {
		return
	}
	for _, r := range s.Results {
		r.Scale = paper / raw
	}
}

// tablesCSV is the paper's tables as CSV, in the order of
// testdata/golden/tables.csv.
func tablesCSV(sweeps []*core.Sweep) string {
	var at32 []*core.Result
	for _, s := range sweeps {
		if r, ok := s.Results[32]; ok {
			at32 = append(at32, r)
		}
	}
	return strings.Join([]string{core.Table1CSV(sweeps), core.Figure3CSV(sweeps), core.UserTimeCSV(sweeps),
		core.Table2CSV(at32), core.Table3CSV(sweeps), core.Table4CSV(sweeps)}, "")
}

func (p *paperSweep) finish(ctx context.Context, phases []*phase) []counts {
	// cedar.Sweeps returns analysis results without the kernels, so the
	// work counts come from one more, untimed, pass over the same grid.
	type out struct {
		c   counts
		err error
	}
	outs := engine.Map(workers, p.jobs(), func(_ int, j sweepJob) out {
		run, err := cedar.SimulateRunCtx(ctx, p.apps[j.app], j.cfg, p.opts)
		if err != nil {
			return out{err: err}
		}
		return out{c: countsOf(run)}
	})
	var pass counts
	for _, o := range outs {
		if o.err != nil {
			p.e.fail("count pass: %v", o.err)
		}
		pass.add(o.c)
	}
	res := make([]counts, len(phases))
	for i, ph := range phases {
		res[i] = pass.scaled(float64(len(ph.lat)))
	}
	return res
}

// report adds model_err_pct: the mean relative error of the simulated
// speedups against the paper's Table 1, over the five applications at
// 4, 8, 16 and 32 processors.
func (p *paperSweep) report(m metricSet, _, _ *phase) {
	total, n := 0.0, 0
	for _, s := range p.sweeps {
		row, ok := perfect.PaperTable1[s.App]
		if !ok {
			continue
		}
		for _, ces := range []int{4, 8, 16, 32} {
			r, want := s.Results[ces], row.Speedup[ces]
			if r == nil || want == 0 {
				continue
			}
			total += math.Abs(r.Speedup(s.Base())-want) / want
			n++
		}
	}
	if n > 0 {
		m["model.err_pct"] = metric{Value: 100 * total / float64(n), Unit: "%", N: n, Exact: true}
	}
}

func (p *paperSweep) close() {}

// tracedJobs runs fn over items through the engine pool, one span per
// job under the operation's span, and records the job times and the
// operation's tail (its time after the last job started).
func tracedJobs[T, R any](ph *phase, op int, items []T, name func(T) string, fn func(T) R) []R {
	type out struct {
		r     R
		start time.Time
		d     time.Duration
	}
	outs := engine.Map(workers, items, func(_ int, it T) out {
		o := out{start: time.Now()}
		o.d = ph.tr.span(name(it), op, func(int) { o.r = fn(it) })
		return o
	})
	end := time.Now()
	res := make([]R, len(outs))
	var last time.Time
	for i, o := range outs {
		res[i] = o.r
		ph.jobs = append(ph.jobs, o.d.Seconds())
		if o.start.After(last) {
			last = o.start
		}
	}
	ph.tails = append(ph.tails, end.Sub(last).Seconds())
	return res
}
