package cedar_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const corpusDir = "testdata/faultcorpus"

// TestCorpusReplay replays every checked-in scenario twice and verifies
// its declared outcome and bit-identity. This is the regression suite
// for the fail-stop page-fault deadlock: the ROADMAP schedule lives
// here and must keep completing.
func TestCorpusReplay(t *testing.T) {
	scs, err := scenario.LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	sawRoadmap := false
	for _, sc := range scs {
		t.Run(sc.Plan.String(), func(t *testing.T) {
			if _, err := scenario.Reproduce(context.Background(), sc); err != nil {
				t.Errorf("%s: %v", sc.File, err)
			}
		})
		if sc.Plan.String() == "ce:4x1.25@47085,ce:1@76414,module:3x2@23648" {
			sawRoadmap = true
		}
	}
	if !sawRoadmap {
		t.Error("the ROADMAP fail-stop schedule is missing from the corpus")
	}
}

// FuzzFailStopSchedule sweeps fail-stop schedules across the page-fault
// windows of a healthy FLO52 run on 8proc (one timestep): the schedule
// family that exposed the fail-stop page-fault deadlock. Each input
// seed maps to one plan (faults.SweepTimes), and every plan must run to
// completion. A failing plan is shrunk (scenario.Shrink) and reported
// as a ready-to-commit testdata/faultcorpus document. The windows are
// found once per process; the seed corpus is in
// testdata/fuzz/FuzzFailStopSchedule/.
func FuzzFailStopSchedule(f *testing.F) {
	app, cfg, opts := perfect.FLO52(), arch.Cedar8, cedar.Options{Steps: 1}
	windows, err := cedar.FaultWindows(app, cfg, opts)
	if err != nil {
		f.Fatalf("healthy window-discovery run: %v", err)
	}
	if len(windows) == 0 {
		f.Fatal("no page-fault windows on the healthy run; nothing to aim at")
	}
	base, err := scenario.ForRun("failstop", app, cfg, opts)
	if err != nil {
		f.Fatal(err)
	}
	// CE 0 leads the main task; killing it deadlocks the machine by
	// design (the helpers starve), which would drown real hand-off bugs
	// in expected failures. Kill any other CE.
	var ces []int
	for ce := 1; ce < cfg.CEs(); ce++ {
		ces = append(ces, ce)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		plan := faults.SweepTimes(nil, windows, ces, cfg.GMModules, seed, 1)[0]
		if err := plan.Validate(cfg); err != nil {
			t.Fatalf("SweepTimes generated an invalid plan: %v", err)
		}
		sc := *base
		sc.Name, sc.Plan = fmt.Sprintf("failstop-%d", seed), plan
		ctx := context.Background()
		_, err := sc.Simulate(ctx)
		if err == nil {
			return
		}
		shrunk, runs, serr := scenario.Shrink(ctx, &sc, 60)
		if serr != nil {
			t.Fatalf("plan %s: %v (shrink failed: %v)", plan, err, serr)
		}
		t.Fatalf("plan %s: %v\nshrunk in %d runs; add it to testdata/faultcorpus/ with a comment naming the bug:\n%s",
			plan, err, runs, shrunk.Format())
	})
}

// TestReplayBitIdentical: running the same scenario twice must produce
// byte-identical statfx output — the record/replay contract.
func TestReplayBitIdentical(t *testing.T) {
	sc, err := scenario.LoadFile(filepath.Join(corpusDir, "roadmap-pgflt-deadlock.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sc.Simulate(context.Background())
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := sc.Simulate(context.Background())
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	ta, tb := a.StatfxText(), b.StatfxText()
	if ta != tb {
		t.Fatalf("runs diverged:\n--- first ---\n%s--- second ---\n%s", ta, tb)
	}
	if !strings.Contains(ta, "faults seq=") || !strings.Contains(ta, "os ") {
		t.Fatalf("statfx text missing sections:\n%s", ta)
	}
}

// TestRecordScenarioRoundTrip: a recorded scenario resolves the seed,
// prints to a fixpoint, and replays to the same run as the original
// call — for registry apps and for generated ones, which it inlines.
func TestRecordScenarioRoundTrip(t *testing.T) {
	plan, err := faults.Parse("ce:1@76414,module:3x2@23648")
	if err != nil {
		t.Fatal(err)
	}
	opts := cedar.Options{Steps: 1, Faults: plan}
	sc, err := scenario.ForRun("rec", perfect.FLO52(), arch.Cedar8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed == 0 {
		t.Fatal("recorded scenario left the seed unresolved")
	}
	if sc.App != "FLO52" || sc.Workload != "" || sc.ScaleFactor() != 1 {
		t.Fatalf("registry app recorded as app=%q workload=%q scale=%d", sc.App, sc.Workload, sc.ScaleFactor())
	}
	parsed, err := scenario.Parse("rec", sc.Format())
	if err != nil {
		t.Fatalf("recorded document does not parse: %v", err)
	}
	if string(parsed.Format()) != string(sc.Format()) {
		t.Fatalf("record/parse round trip unstable:\n%s\n%s", sc.Format(), parsed.Format())
	}
	// An explicit seed is recorded verbatim.
	opts77 := opts
	opts77.Seed = 77
	if sc77, err := scenario.ForRun("rec", perfect.FLO52(), arch.Cedar8, opts77); err != nil || sc77.Seed != 77 {
		t.Fatalf("explicit seed not recorded: %v %v", sc77, err)
	}

	// A generated app is not in the registry: it travels inline.
	genApp, err := (perfect.Resolver{}).Resolve("gen:seed=7")
	if err != nil {
		t.Fatal(err)
	}
	genSc, err := scenario.ForRun("gen", genApp, arch.Cedar8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if genSc.App != "" || genSc.Workload == "" {
		t.Fatalf("generated app recorded as app=%q, want an inline workload", genSc.App)
	}

	for _, c := range []struct {
		app perfect.App
		sc  *scenario.Scenario
	}{{perfect.FLO52(), sc}, {genApp, genSc}} {
		orig, origErr := cedar.SimulateRunErr(c.app, arch.Cedar8, opts)
		rep, repErr := c.sc.Simulate(context.Background())
		if scenario.Outcome(origErr) != scenario.Outcome(repErr) || orig == nil || rep == nil {
			t.Fatalf("%s: outcome %v, replayed %v", c.sc.Name, origErr, repErr)
		}
		if orig.StatfxText() != rep.StatfxText() {
			t.Fatalf("%s: replaying the recorded scenario diverged from the original run", c.sc.Name)
		}
	}

	// A custom parametric machine has no name a document can carry.
	custom := arch.Cedar8
	custom.Name = "custom-2x4"
	if _, err := scenario.ForRun("custom", perfect.FLO52(), custom, opts); err == nil ||
		!strings.Contains(err.Error(), "named configuration") {
		t.Fatalf("custom machine recorded: %v", err)
	}
}

func TestOutcomeClassification(t *testing.T) {
	if got := scenario.Outcome(nil); got != scenario.ExpectOK {
		t.Fatalf("Outcome(nil) = %q", got)
	}
	if got := scenario.Outcome(sim.ErrDeadlock); got != scenario.ExpectDeadlock {
		t.Fatalf("Outcome(ErrDeadlock) = %q", got)
	}
	if got := scenario.Outcome(errors.New("boom")); got != scenario.ExpectError {
		t.Fatalf("Outcome(err) = %q", got)
	}
}

func TestFaultWindowsFound(t *testing.T) {
	ws, err := cedar.FaultWindows(perfect.FLO52(), arch.Cedar8, cedar.Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("no page-fault windows observed on a healthy run")
	}
	for i, w := range ws {
		if w.End < w.Start {
			t.Fatalf("window %d inverted: %+v", i, w)
		}
		if i > 0 && w.Start <= ws[i-1].End {
			t.Fatalf("windows %d and %d not disjoint ascending: %+v %+v", i-1, i, ws[i-1], w)
		}
	}
	// The ROADMAP kill time must land inside a discovered window — the
	// fuzzer aims where the bug actually was.
	const roadmapKill = sim.Time(76_414)
	hit := false
	for _, w := range ws {
		if roadmapKill >= w.Start && roadmapKill <= w.End {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("kill time %d outside every window %v", roadmapKill, ws)
	}
}

// TestShrinkErrDeadlock shrinks the kill-the-main-cluster deadlock and
// verifies the minimized scenario still deadlocks.
func TestShrinkErrDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking replays the deadlock watchdog repeatedly")
	}
	var plan faults.Plan
	for ce := 0; ce < arch.Cedar16.CEsPerCluster; ce++ {
		plan = append(plan, faults.Event{Kind: faults.CEFail, Target: ce, At: 50_000})
	}
	ctx := context.Background()
	sc, err := scenario.ForRun("killed", perfect.FLO52(), arch.Cedar16, cedar.Options{Steps: 1, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	shrunk, runs, err := scenario.Shrink(ctx, sc, 24)
	if err != nil {
		t.Fatal(err)
	}
	if runs < 2 {
		t.Fatalf("shrinker spent only %d runs", runs)
	}
	if shrunk.Expect != scenario.ExpectDeadlock {
		t.Fatalf("shrunk expectation %q, want deadlock", shrunk.Expect)
	}
	if len(shrunk.Plan) > len(sc.Plan) {
		t.Fatalf("shrinking grew the plan: %d -> %d events", len(sc.Plan), len(shrunk.Plan))
	}
	if _, err := scenario.Reproduce(ctx, shrunk); err != nil {
		t.Fatalf("shrunk scenario no longer deadlocks: %v", err)
	}
	// A clean scenario refuses to shrink.
	okPlan, err := faults.Parse("ce:5@1e5")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := scenario.ForRun("clean", perfect.FLO52(), arch.Cedar8, cedar.Options{Steps: 1, Faults: okPlan})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := scenario.Shrink(ctx, ok, 8); err == nil {
		t.Fatal("shrinking a clean scenario did not error")
	}
}

// TestReplayUnknownNames: a scenario naming an app or configuration
// the registries do not know is rejected before anything runs.
func TestReplayUnknownNames(t *testing.T) {
	for _, doc := range []string{
		"app: NOPE\nconfig: 8proc\nplan: ce:1@500\n",
		"app: FLO52\nconfig: 9000proc\nplan: ce:1@500\n",
	} {
		if _, err := scenario.Parse("unknown", []byte(doc)); err == nil {
			t.Fatalf("unknown name accepted:\n%s", doc)
		}
	}
}
