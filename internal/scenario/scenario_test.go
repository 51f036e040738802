package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/benchcmp"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
)

const fullDoc = `# comment line
name: flo52-kill
app: FLO52
config: 8proc
steps: 1
scale: auto
seed: 3327910339796038169
plan: ce:1@76414
parallel: 1
max_cycles: 100000000
wall_tol: 0.4
metrics:
  - ct_cycles
  - os_breakdown
  - events
`

func TestParseFullDocument(t *testing.T) {
	sc, err := Parse("fallback", []byte(fullDoc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "flo52-kill" || sc.App != "FLO52" || sc.Config != "8proc" {
		t.Fatalf("identity = %q %q %q", sc.Name, sc.App, sc.Config)
	}
	if sc.Steps != 1 || sc.Seed != 3327910339796038169 || sc.MaxCycles != 100000000 {
		t.Fatalf("steps/seed/max_cycles = %d %d %d", sc.Steps, sc.Seed, sc.MaxCycles)
	}
	if got := sc.Plan.String(); got != "ce:1@76414" {
		t.Fatalf("plan = %q", got)
	}
	if sc.WallTol != 0.4 || sc.Parallel != 1 {
		t.Fatalf("wall_tol/parallel = %v %d", sc.WallTol, sc.Parallel)
	}
	if want := []string{MetricCT, MetricOSBreakdown, MetricEvents}; strings.Join(sc.Metrics, ",") != strings.Join(want, ",") {
		t.Fatalf("metrics = %v, want %v", sc.Metrics, want)
	}
	if sc.ScaleFactor() != 1 {
		t.Fatalf("auto scale on 8proc = %d, want 1", sc.ScaleFactor())
	}
}

func TestParseDefaults(t *testing.T) {
	sc, err := Parse("mini", []byte("app: FLO52\nconfig: 1proc\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "mini" {
		t.Fatalf("fallback name = %q", sc.Name)
	}
	if len(sc.Metrics) != 0 {
		t.Fatalf("metrics should default lazily, got %v", sc.Metrics)
	}
	set := sc.metricSet(false)
	if strings.Join(set, ",") != strings.Join(DefaultMetrics(), ",") {
		t.Fatalf("default metric set = %v", set)
	}
	if sc.WallTol != 0.5 {
		t.Fatalf("default wall_tol = %v", sc.WallTol)
	}
	// wallclock mode appends the wall metric exactly once.
	wall := sc.metricSet(true)
	if wall[len(wall)-1] != MetricWallEventsPerSec {
		t.Fatalf("wallclock set = %v", wall)
	}
}

func TestParseAutoScaleOnScaledMember(t *testing.T) {
	sc, err := Parse("s64", []byte("app: FLO52\nconfig: scaled64\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.ScaleFactor() != 2 {
		t.Fatalf("auto scale on scaled64 = %d, want 2", sc.ScaleFactor())
	}
}

// A scenario can carry its application inline: a workload: block is
// dedented into a self-contained workload document, resolved at parse
// time, and named after the document's workload: key.
func TestParseInlineWorkloadBlock(t *testing.T) {
	doc := `name: inline
config: 8proc
steps: 2
pathology: hotspot
workload:
  workload: probe
  steps: 2
  data_words: 4096
  phase: xdoall x
    inner: 32
    work: 100
    gm_words: 4
    gm_stride: 32
`
	sc, err := Parse("fallback", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.App != "" {
		t.Fatalf("App = %q, want empty for a workload scenario", sc.App)
	}
	if !strings.HasPrefix(sc.Workload, "workload: probe\n") || !strings.HasSuffix(sc.Workload, "gm_stride: 32\n") {
		t.Fatalf("block not dedented into a document:\n%s", sc.Workload)
	}
	if sc.Pathology != cedar.PathologyHotSpot {
		t.Fatalf("Pathology = %q", sc.Pathology)
	}
	app, cfg, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "probe" || sc.AppName() != "probe" {
		t.Fatalf("resolved app %q, AppName %q; want probe", app.Name, sc.AppName())
	}
	if cfg.Name != "8proc" || len(app.Phases) != 1 || app.Phases[0].GMStride != 32 {
		t.Fatalf("resolved app/config off: %+v on %s", app, cfg.Name)
	}
}

// A single-line workload: value is a gen: spec resolved through the
// same path as every other layer.
func TestParseGenWorkload(t *testing.T) {
	sc, err := Parse("g", []byte("config: 8proc\nworkload: gen:seed=14,hot=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != sc.AppName() || app.Name == "" {
		t.Fatalf("gen app %q, AppName %q", app.Name, sc.AppName())
	}
	if err := app.Validate(); err != nil {
		t.Fatalf("generated app invalid: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"missing app", "config: 8proc\n", "missing app"},
		{"missing config", "app: FLO52\n", "missing config"},
		{"unknown app", "app: NOPE\nconfig: 8proc\n", `unknown app "NOPE" (known:`},
		{"unknown config", "app: FLO52\nconfig: 9proc\n", `unknown configuration "9proc"`},
		{"unknown key", "app: FLO52\nconfig: 8proc\nbogus: 1\n", `unknown key "bogus"`},
		{"duplicate key", "app: FLO52\napp: OCEAN\nconfig: 8proc\n", "duplicate key"},
		{"bad plan", "app: FLO52\nconfig: 8proc\nplan: wat\n", "plan"},
		{"plan outside config", "app: FLO52\nconfig: 8proc\nplan: ce:63@5\n", "out of range"},
		{"negative steps", "app: FLO52\nconfig: 8proc\nsteps: -1\n", "negative"},
		{"zero scale", "app: FLO52\nconfig: 8proc\nscale: 0\n", "scale"},
		{"bad wall tol", "app: FLO52\nconfig: 8proc\nwall_tol: 1.5\n", "wall_tol"},
		{"zero wall tol", "app: FLO52\nconfig: 8proc\nwall_tol: 0\n", "wall_tol"},
		{"NaN wall tol", "app: FLO52\nconfig: 8proc\nwall_tol: NaN\n", "wall_tol"},
		{"unknown outcome", "app: FLO52\nconfig: 8proc\nexpect: maybe\n", `unknown outcome "maybe"`},
		{"unknown metric", "app: FLO52\nconfig: 8proc\nmetrics:\n  - bogus\n", `unknown metric "bogus"`},
		{"inline metrics value", "app: FLO52\nconfig: 8proc\nmetrics: ct_cycles\n", "- item lines"},
		{"list item without list", "app: FLO52\nconfig: 8proc\n- ct_cycles\n", "outside a list key"},
		{"indented scalar", "app: FLO52\n  config: 8proc\n", "indentation"},
		{"not key value", "app: FLO52\nconfig: 8proc\njust words\n", "key: value"},
		{"bad name", "name: a b\napp: FLO52\nconfig: 8proc\n", "name"},
		{"app and workload", "app: FLO52\nconfig: 8proc\nworkload: gen:seed=1\n", "mutually exclusive"},
		{"workload file path", "config: 8proc\nworkload: apps.workload\n", "not allowed here"},
		{"empty workload block", "config: 8proc\nworkload:\n", "missing app"},
		{"bad workload doc", "config: 8proc\nworkload:\n  steps: 2\n  bogus: 1\n", `unknown key "bogus"`},
		{"unknown pathology", "app: FLO52\nconfig: 8proc\npathology: slowness\n", `unknown pathology "slowness"`},
		{"speedup on a deadlock", "app: FLO52\nconfig: 8proc\nexpect: deadlock\nmetrics:\n  - speedup\n",
			"metric speedup needs expect: ok"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("x", []byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(file, doc string) {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("zz.scenario", "app: FLO52\nconfig: 1proc\n")
	write("aa.scenario", "app: OCEAN\nconfig: 8proc\n")
	write("ignored.txt", "not a scenario")
	scs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 || scs[0].Name != "aa" || scs[1].Name != "zz" {
		t.Fatalf("loaded %d scenarios, order %v", len(scs), scs)
	}
	if scs[0].File == "" {
		t.Fatal("provenance File not set")
	}

	// Duplicate names across files are ambiguous capture keys.
	write("dup.scenario", "name: aa\napp: FLO52\nconfig: 1proc\n")
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), `"aa"`) {
		t.Fatalf("duplicate-name error = %v", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty scenario dir must error: a suite gating nothing proves nothing")
	}
}

// tiny is the fastest possible real scenario for runner tests.
func tiny(t *testing.T) *Scenario {
	t.Helper()
	sc, err := Parse("tiny", []byte("app: FLO52\nconfig: 1proc\nsteps: 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestRunExtractsDefaultMetrics(t *testing.T) {
	recs, err := Run(tiny(t), false)
	if err != nil {
		t.Fatal(err)
	}
	// ct + events + sim_events_per_sec + one row per OS category.
	want := 3 + int(metrics.NumOSCategories)
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	byMetric := map[string]Record{}
	for _, r := range recs {
		if r.Scenario != "tiny" || r.App != "FLO52" || r.Config != "1proc" || r.Scale != 1 {
			t.Fatalf("bad stamp: %+v", r)
		}
		if r.Tol != 0 {
			t.Fatalf("deterministic record with tolerance: %+v", r)
		}
		byMetric[r.Metric] = r
	}
	if byMetric[MetricCT].Value <= 0 || byMetric[MetricEvents].Value <= 0 ||
		byMetric[MetricSimEventsPerSec].Value <= 0 {
		t.Fatalf("non-positive core metrics: %+v", byMetric)
	}
}

// The scaling-study records equal the facade's own computation: the
// run against a 1-processor base with the scenario's steps and seed,
// its resolved scale factor (a weak study compares each machine against
// its own problem), and no fault plan (the plan names CE 5, which the
// 1-processor machine lacks).
func TestRunScalingMetrics(t *testing.T) {
	metricsList := "metrics:\n  - speedup\n  - ov_cont\n  - os_share\n  - barrier_share\n"
	plan, err := faults.Parse("ce:5x2@1000")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		doc   string
		cfg   arch.Config
		scale int
		opts  cedar.Options
	}{
		{"app: OCEAN\nconfig: 64proc\nsteps: 1\nseed: 11\nscale: auto\n", arch.Scaled64, 2,
			cedar.Options{Steps: 1, Seed: 11}},
		{"app: FLO52\nconfig: 8proc\nsteps: 1\nplan: ce:5x2@1000\n", arch.Cedar8, 1,
			cedar.Options{Steps: 1, Faults: plan}},
	} {
		sc, err := Parse("scaling", []byte(tc.doc+metricsList))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := Run(sc, false)
		if err != nil {
			t.Fatal(err)
		}
		app, _, _ := sc.Resolve()
		if app.Name == "" || sc.ScaleFactor() != tc.scale {
			t.Fatalf("%s: scale factor %d, want %d", tc.cfg.Name, sc.ScaleFactor(), tc.scale)
		}
		res := cedar.Simulate(app, tc.cfg, tc.opts)
		healthy := tc.opts
		healthy.Faults = nil
		base := cedar.Simulate(app, arch.Cedar1, healthy)
		cont, err := core.ContentionOverhead(base, res)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{
			MetricSpeedup:      res.Speedup(base),
			MetricOvCont:       cont.OvCont,
			MetricOSShare:      res.OSShare() * 100,
			MetricBarrierShare: res.Task(0).Barrier * 100,
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records, want %d", tc.cfg.Name, len(recs), len(want))
		}
		for _, r := range recs {
			if r.Value != want[r.Metric] || r.Scale != tc.scale {
				t.Errorf("%s %s = %v (scale %d), want %v (scale %d)",
					tc.cfg.Name, r.Metric, r.Value, r.Scale, want[r.Metric], tc.scale)
			}
		}
	}
}

func TestRunWallclockRecord(t *testing.T) {
	recs, err := Run(tiny(t), true)
	if err != nil {
		t.Fatal(err)
	}
	var wall *Record
	for i := range recs {
		if recs[i].Metric == MetricWallEventsPerSec {
			wall = &recs[i]
		}
	}
	if wall == nil || wall.Value <= 0 || wall.Tol != 0.5 {
		t.Fatalf("wall record = %+v", wall)
	}
}

func TestCaptureDeterministicAndParallelInvariant(t *testing.T) {
	// The fault corpus rides along: its entries meet their expect:
	// (a pinned deadlock included) at any worker count.
	corpus, err := LoadDir("../../testdata/faultcorpus")
	if err != nil {
		t.Fatal(err)
	}
	scs := append([]*Scenario{tiny(t)}, corpus...)
	ctx := context.Background()
	r1, err := RunAll(ctx, scs, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunAll(ctx, scs, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := EncodeCapture(r1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeCapture(r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("capture bytes differ between runs/worker counts")
	}
	// And the encoding round-trips.
	recs, err := ReadCapture(bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(r1) {
		t.Fatalf("round trip lost records: %d != %d", len(recs), len(r1))
	}
	rep, err := Diff(recs, r2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("self-diff failed: %v", err)
	}
}

func rec(name, metric string, value, tol float64) Record {
	return Record{Scenario: name, App: "FLO52", Config: "1proc", Metric: metric, Value: value, Tol: tol}
}

func TestDiffGates(t *testing.T) {
	old := []Record{
		rec("s", MetricCT, 1000, 0),
		rec("s", MetricWallEventsPerSec, 100, 0.5),
	}
	t.Run("exact drift fails", func(t *testing.T) {
		rep, err := Diff(old, []Record{rec("s", MetricCT, 1001, 0), rec("s", MetricWallEventsPerSec, 100, 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err() == nil {
			t.Fatal("drifted ct passed")
		}
	})
	t.Run("throughput within tolerance passes", func(t *testing.T) {
		rep, err := Diff(old, []Record{rec("s", MetricCT, 1000, 0), rec("s", MetricWallEventsPerSec, 60, 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("60%% of baseline throughput failed a 0.5 tolerance: %v", err)
		}
	})
	t.Run("throughput beyond tolerance fails", func(t *testing.T) {
		rep, err := Diff(old, []Record{rec("s", MetricCT, 1000, 0), rec("s", MetricWallEventsPerSec, 40, 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err() == nil {
			t.Fatal("40% of baseline throughput passed a 0.5 tolerance")
		}
	})
	t.Run("record missing from fresh run is fatal", func(t *testing.T) {
		rep, err := Diff(old, []Record{rec("s", MetricWallEventsPerSec, 100, 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err() == nil {
			t.Fatal("missing ct record passed the gate")
		}
		var found bool
		for _, row := range rep.Rows {
			if row.Status == benchcmp.StatusMissing && row.Fatal {
				found = true
			}
		}
		if !found {
			t.Fatalf("no fatal MISSING row: %+v", rep.Rows)
		}
	})
	t.Run("duplicate records rejected", func(t *testing.T) {
		if _, err := Diff(old, []Record{rec("s", MetricCT, 1, 0), rec("s", MetricCT, 1, 0)}); err == nil {
			t.Fatal("duplicate fresh records accepted")
		}
	})
}

func TestReadCaptureVersionCheck(t *testing.T) {
	if _, err := ReadCapture(strings.NewReader(`{"version": 99, "records": []}`)); err == nil {
		t.Fatal("future capture version accepted")
	}
}

func TestRunFailingScenarioErrors(t *testing.T) {
	// Killing every CE of the main cluster deadlocks by design (see
	// testdata/faultcorpus/main-cluster-killed.scenario); without an
	// expect: deadlock declaration that outcome is a failure.
	doc := "app: FLO52\nconfig: 16proc\nsteps: 1\nseed: 1645508699426838620\n" +
		"plan: ce:0@50000,ce:1@50000,ce:2@50000,ce:3@50000,ce:4@50000,ce:5@50000,ce:6@50000,ce:7@50000\n"
	sc, err := Parse("deadlock", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc, false); err == nil {
		t.Fatal("deadlocking scenario produced records")
	}
}
