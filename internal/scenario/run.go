package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/benchcmp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/sim"
)

// Record is one extracted measurement: scenario × metric, stamped with
// the run's full identity (app, config, scale, seed, steps, plan) so a
// capture is self-describing — a diff that fails names exactly which
// experiment moved. Tol 0 means the value is deterministic model
// output and must match the baseline exactly; a positive Tol marks a
// wall-clock measurement gated within that fraction.
type Record struct {
	Scenario string  `json:"scenario"`
	App      string  `json:"app"`
	Config   string  `json:"config"`
	Scale    int     `json:"scale,omitempty"`
	Steps    int     `json:"steps,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Plan     string  `json:"plan,omitempty"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit,omitempty"`
	Value    float64 `json:"value"`
	Tol      float64 `json:"tol,omitempty"`
}

// Key identifies the record in a diff: scenario/metric.
func (r Record) Key() string { return r.Scenario + "/" + r.Metric }

// Simulate runs the scenario once through the cedar facade and returns
// the run with its raw error. As with cedar.SimulateRunErr, the run is
// non-nil whenever the simulation started, carrying the accounting up
// to an abnormal stop.
func (sc *Scenario) Simulate(ctx context.Context) (*cedar.Run, error) {
	app, cfg, err := sc.Resolve()
	if err != nil {
		return nil, err
	}
	return cedar.SimulateRunCtx(ctx, app, cfg, cedar.Options{
		Steps:     sc.Steps,
		Seed:      sc.Seed,
		Faults:    sc.Plan,
		MaxCycles: sim.Time(sc.MaxCycles),
		Parallel:  sc.Parallel,
	})
}

// Outcome classifies a run's error into the expect: vocabulary.
func Outcome(err error) string {
	switch {
	case err == nil:
		return ExpectOK
	case errors.Is(err, sim.ErrDeadlock):
		return ExpectDeadlock
	default:
		return ExpectError
	}
}

// isInterrupted reports an error caused by stopping a run from outside
// the model — context cancellation or an expired deadline, usually
// surfaced as the kernel's *sim.CanceledError — as opposed to an
// outcome of the simulation itself.
func isInterrupted(err error) bool {
	return errors.Is(err, sim.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// check holds a run and its raw error to the declared expectation:
// the expect: outcome, and the pathology: class when one is declared.
// An interrupted run is never an outcome: its error comes back as is,
// whatever expect: says, so a truncated run cannot pass for an
// expected failure (and a service cannot cache it as one).
func (sc *Scenario) check(run *cedar.Run, err error) error {
	if isInterrupted(err) {
		return err
	}
	got, want := Outcome(err), sc.Expectation()
	switch {
	case got != want && err != nil:
		return fmt.Errorf("scenario %s: outcome %s, want %s: %w", sc.Name, got, want, err)
	case got != want:
		return fmt.Errorf("scenario %s: outcome %s, want %s", sc.Name, got, want)
	case sc.Pathology == "":
		return nil
	case run == nil:
		return fmt.Errorf("scenario %s: declared pathology %s, but no run to inspect", sc.Name, sc.Pathology)
	}
	if shown := run.Pathologies(); !slices.Contains(shown, sc.Pathology) {
		return fmt.Errorf("scenario %s: declared pathology %s not detected (run shows %v)", sc.Name, sc.Pathology, shown)
	}
	return nil
}

// RunCtx executes one scenario through the cedar facade and extracts
// its metric records. wallclock additionally measures
// MetricWallEventsPerSec (nondeterministic; see the metric's doc). The
// run fails only when its outcome differs from the declared expect:,
// when it does not show its declared pathology:, or when it was
// interrupted; a run that stops as expected — a pinned
// deadlock, say — yields the records of the accounting it produced.
// When the metric set has speedup or ov_cont, RunCtx also runs the
// 1-processor base they compare against (see base).
func RunCtx(ctx context.Context, sc *Scenario, wallclock bool) ([]Record, error) {
	start := time.Now()
	run, err := sc.Simulate(ctx)
	wall := time.Since(start)
	if err := sc.check(run, err); err != nil {
		return nil, err
	}
	if run == nil {
		return nil, nil
	}
	var base *core.Result
	if slices.Contains(sc.Metrics, MetricSpeedup) || slices.Contains(sc.Metrics, MetricOvCont) {
		if base, err = sc.base(ctx); err != nil {
			return nil, err
		}
	}
	return sc.extract(run, base, wall, wallclock)
}

// base runs the scenario's resolved app on the 1-processor machine: the
// same steps and seed, and the scenario's own scale factor, so a weak
// study compares each machine against its own problem size. It always
// runs healthy — plan events may name CEs the 1-processor machine lacks
// — and without the cycle budget, which guards the fault plan.
func (sc *Scenario) base(ctx context.Context) (*core.Result, error) {
	app, _, err := sc.Resolve()
	if err != nil {
		return nil, err
	}
	run, err := cedar.SimulateRunCtx(ctx, app, arch.Cedar1, cedar.Options{Steps: sc.Steps, Seed: sc.Seed})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: 1-processor base: %w", sc.Name, err)
	}
	return run.Result, nil
}

// Reproduce runs the scenario twice, holds both runs to the declared
// expectation (as RunCtx does), and requires their statfx accounting to be
// byte-identical: the record/replay contract a checked-in scenario
// makes. It returns the first run.
func Reproduce(ctx context.Context, sc *Scenario) (*cedar.Run, error) {
	var runs [2]*cedar.Run
	for i := range runs {
		run, err := sc.Simulate(ctx)
		if err := sc.check(run, err); err != nil {
			return run, err
		}
		runs[i] = run
	}
	if a, b := runs[0], runs[1]; (a == nil) != (b == nil) || a != nil && a.StatfxText() != b.StatfxText() {
		return a, fmt.Errorf("scenario %s: two runs are not bit-identical", sc.Name)
	}
	return runs[0], nil
}

// Shrink minimizes a failing scenario's fault plan (faults.Shrink)
// while its outcome class — deadlock, or any other error — keeps
// reproducing, and declares that class as the result's expectation, so
// the shrunk scenario checks into a regression corpus as is. It returns
// the shrunk scenario and the number of runs spent. A scenario that
// completes cleanly is an error: there is nothing to reproduce.
func Shrink(ctx context.Context, sc *Scenario, maxRuns int) (*Scenario, int, error) {
	_, err := sc.Simulate(ctx)
	class := Outcome(err)
	switch {
	case isInterrupted(err):
		return nil, 1, err
	case class == ExpectOK:
		return nil, 1, fmt.Errorf("scenario %s completes cleanly; nothing to shrink", sc.Name)
	}
	trial := *sc
	plan, runs := faults.Shrink(sc.Plan, func(cand faults.Plan) bool {
		trial.Plan = cand
		_, err := trial.Simulate(ctx)
		return !isInterrupted(err) && Outcome(err) == class
	}, maxRuns)
	shrunk := *sc
	shrunk.Plan, shrunk.Expect = plan, class
	return &shrunk, runs + 1, nil
}

// ForRun builds the scenario that reproduces a run of app on cfg with
// opts: the app by name when it is the registry's own, otherwise inline
// as a workload: block; the resolved kernel seed; scale pinned to 1,
// since the run was not weak-scaled. The document is parsed back before
// it is returned, so a recorded scenario always replays. A custom
// machine, or options a scenario does not carry, cannot be recorded.
func ForRun(name string, app perfect.App, cfg arch.Config, opts cedar.Options) (*Scenario, error) {
	if _, ok := arch.FamilyByName(cfg.Name); !ok {
		return nil, fmt.Errorf("a recorded scenario needs a named configuration (see -list-configs), not the custom machine %s", cfg.Name)
	}
	if opts.XdoallChunk > 1 || opts.TreeFanout > 1 {
		return nil, fmt.Errorf("a scenario does not carry the XDOALL chunk or the barrier tree fanout")
	}
	sc := &Scenario{Name: name, Config: cfg.Name, Steps: opts.Steps, Scale: 1,
		Seed: opts.KernelSeed(app, cfg), Plan: opts.Faults, MaxCycles: int64(opts.MaxCycles)}
	doc := perfect.PrintWorkload(app)
	if reg, ok := perfect.ByName(app.Name); ok && bytes.Equal(perfect.PrintWorkload(reg), doc) {
		sc.App = app.Name
	} else {
		sc.Workload = string(doc)
	}
	return Parse(name, sc.Format())
}

// Run is RunCtx without cancellation.
func Run(sc *Scenario, wallclock bool) ([]Record, error) {
	return RunCtx(context.Background(), sc, wallclock)
}

// extract pulls the scenario's metric set out of a finished run. The
// Table-2 decomposition comes from the run's metric registry snapshot
// — the same source StatfxText and every exporter render from — so a
// scenario capture is structurally consistent with them.
func (sc *Scenario) extract(run *cedar.Run, base *core.Result, wall time.Duration, wallclock bool) ([]Record, error) {
	snap := run.Metrics().Snapshot()
	events := run.Machine.Kernel.EventsFired()
	ct := int64(run.Result.CT)

	stamp := func(metric, unit string, value, tol float64) Record {
		return Record{
			Scenario: sc.Name, App: sc.AppName(), Config: sc.Config,
			Scale: sc.ScaleFactor(), Steps: sc.Steps, Seed: sc.Seed,
			Plan: sc.Plan.String(), Metric: metric, Unit: unit,
			Value: value, Tol: tol,
		}
	}
	var out []Record
	for _, m := range sc.metricSet(wallclock) {
		switch m {
		case MetricCT:
			out = append(out, stamp(MetricCT, "cycles", float64(ct), 0))
		case MetricOSBreakdown:
			ot, ok := snap.Get("os_time_cycles")
			if !ok {
				return nil, fmt.Errorf("scenario %s: run snapshot has no os_time_cycles", sc.Name)
			}
			for _, cell := range ot.Cells {
				out = append(out, stamp(
					fmt.Sprintf("os_time_cycles[%s]", cell.Label[0]), "cycles", cell.Value, 0))
			}
		case MetricConcurrency:
			out = append(out, stamp(MetricConcurrency, "ces", run.Result.MachineConcurrency(), 0))
		case MetricEvents:
			out = append(out, stamp(MetricEvents, "events", float64(events), 0))
		case MetricSimEventsPerSec:
			v := 0.0
			if ct > 0 {
				v = float64(events) / arch.Seconds(ct)
			}
			out = append(out, stamp(MetricSimEventsPerSec, "events/simsec", v, 0))
		case MetricWallEventsPerSec:
			if !wallclock {
				continue // deterministic captures never carry wall time
			}
			v := 0.0
			if s := wall.Seconds(); s > 0 {
				v = float64(events) / s
			}
			tol := sc.WallTol
			if tol == 0 {
				tol = defaultWallTol
			}
			out = append(out, stamp(MetricWallEventsPerSec, "events/sec", v, tol))
		case MetricSpeedup:
			out = append(out, stamp(MetricSpeedup, "ratio", run.Result.Speedup(base), 0))
		case MetricOvCont:
			cont, err := core.ContentionOverhead(base, run.Result)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			out = append(out, stamp(MetricOvCont, "%ct", cont.OvCont, 0))
		case MetricOSShare:
			out = append(out, stamp(MetricOSShare, "%ct", run.Result.OSShare()*100, 0))
		case MetricBarrierShare:
			out = append(out, stamp(MetricBarrierShare, "%ct", run.Result.Task(0).Barrier*100, 0))
		default:
			return nil, fmt.Errorf("scenario %s: unknown metric %q", sc.Name, m)
		}
	}
	return out, nil
}

// RunAll executes the scenarios through the shared worker pool
// (internal/engine) and returns their records concatenated in scenario
// order — byte-identical at any worker count, like every other batch
// surface. The first scenario error aborts the batch.
func RunAll(ctx context.Context, scs []*Scenario, workers int, wallclock bool) ([]Record, error) {
	type result struct {
		recs []Record
		err  error
	}
	results, err := engine.MapCtx(ctx, workers, scs,
		func(ctx context.Context, _ int, sc *Scenario) result {
			recs, rerr := RunCtx(ctx, sc, wallclock)
			return result{recs, rerr}
		})
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.recs...)
	}
	return out, nil
}

// capture is the on-disk BENCH_scenarios.json shape.
type capture struct {
	Version int      `json:"version"`
	Records []Record `json:"records"`
}

// captureVersion stamps the file format.
const captureVersion = 1

// EncodeCapture renders records as the canonical capture document:
// version header, records sorted by (scenario, metric), one record
// per line. Two encodings of the same records are byte-identical, so
// a committed capture diffs cleanly and the determinism acceptance
// check (run twice, compare bytes) is meaningful.
func EncodeCapture(recs []Record) ([]byte, error) {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Scenario != sorted[j].Scenario {
			return sorted[i].Scenario < sorted[j].Scenario
		}
		return sorted[i].Metric < sorted[j].Metric
	})
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"version\": %d,\n  \"records\": [\n", captureVersion)
	for i, r := range sorted {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.WriteString("    ")
		b.Write(line)
		if i < len(sorted)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes(), nil
}

// ReadCapture parses a capture document.
func ReadCapture(r io.Reader) ([]Record, error) {
	var c capture
	dec := json.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return nil, err
	}
	if c.Version != captureVersion {
		return nil, fmt.Errorf("capture version %d, want %d", c.Version, captureVersion)
	}
	return c.Records, nil
}

// LoadCapture reads a capture file.
func LoadCapture(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadCapture(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// toMap indexes records by key, rejecting duplicates.
func toMap(recs []Record, src string) (map[string]float64, map[string]Record, error) {
	vals := make(map[string]float64, len(recs))
	byKey := make(map[string]Record, len(recs))
	for _, r := range recs {
		k := r.Key()
		if _, dup := byKey[k]; dup {
			return nil, nil, fmt.Errorf("%s: duplicate record %s", src, k)
		}
		vals[k] = r.Value
		byKey[k] = r
	}
	return vals, byKey, nil
}

// Diff gates fresh records against a baseline capture through the
// shared benchcmp core: exact for deterministic records (Tol 0),
// toleranced for wall-clock ones, and — because a scenario capture
// exists to prove properties of specific named experiments — a record
// present in the baseline but missing from the fresh run is fatal, as
// is an empty intersection.
func Diff(oldRecs, newRecs []Record) (*benchcmp.Report, error) {
	oldVals, oldBy, err := toMap(oldRecs, "baseline capture")
	if err != nil {
		return nil, err
	}
	newVals, newBy, err := toMap(newRecs, "fresh capture")
	if err != nil {
		return nil, err
	}
	spec := func(name string) benchcmp.Spec {
		r, ok := newBy[name]
		if !ok {
			r = oldBy[name]
		}
		if r.Tol > 0 {
			return benchcmp.Spec{Tol: r.Tol}
		}
		return benchcmp.Spec{Exact: true}
	}
	return benchcmp.Compare(oldVals, newVals, spec, true), nil
}
