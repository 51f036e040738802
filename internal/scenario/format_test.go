package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/sim"
)

// FuzzParse: Parse never panics on any input, and every document it
// accepts prints to a fixpoint — the canonical form parses back and
// prints to the same bytes. The seed corpus is every committed
// scenario: measurement suite, fault corpus and scaling study alike.
func FuzzParse(f *testing.F) {
	for _, dir := range []string{"../../testdata/scenarios", "../../testdata/faultcorpus", "../../testdata/scaling"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed scenarios in %s (%v)", dir, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse("fuzz", data)
		if err != nil {
			return
		}
		doc := sc.Format()
		again, err := Parse("fuzz", doc)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, doc)
		}
		if got := again.Format(); string(got) != string(doc) {
			t.Fatalf("canonical form is not a fixpoint:\n%s\nprints as\n%s", doc, got)
		}
	})
}

// Format writes keys in one fixed order, omits zero values and
// defaults, and puts the metrics list and then the workload block last.
func TestFormatCanonical(t *testing.T) {
	doc := `# comments are not part of the canonical form
metrics:
  - events
expect: deadlock
wall_tol: 0.5
max_cycles: 90000000
plan: ce:0@50000,ce:1@50000,ce:2@50000,ce:3@50000,ce:4@50000,ce:5@50000,ce:6@50000,ce:7@50000
seed: 9
scale: auto
parallel: 0
config: 16proc
steps: 1
app: FLO52
name: killed
`
	sc, err := Parse("x", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := `name: killed
app: FLO52
config: 16proc
steps: 1
seed: 9
plan: ce:0@50000,ce:1@50000,ce:2@50000,ce:3@50000,ce:4@50000,ce:5@50000,ce:6@50000,ce:7@50000
expect: deadlock
max_cycles: 90000000
metrics:
  - events
`
	if got := string(sc.Format()); got != want {
		t.Fatalf("Format =\n%s\nwant\n%s", got, want)
	}

	// A workload block prints last, two-space indented; a single-line
	// source stays inline.
	block := &Scenario{Name: "w", Config: "8proc", Scale: 1, Pathology: cedar.PathologyHotSpot,
		Workload: "workload: w\n  phase: serial s\n    work: 1\n"}
	want = "name: w\nconfig: 8proc\nscale: 1\npathology: hotspot\nworkload:\n  workload: w\n    phase: serial s\n      work: 1\n"
	if got := string(block.Format()); got != want {
		t.Fatalf("block Format =\n%s\nwant\n%s", got, want)
	}
	inline := &Scenario{Name: "g", Config: "8proc", Workload: "gen:seed=7", WallTol: 0.25}
	if got, want := string(inline.Format()), "name: g\nconfig: 8proc\nwall_tol: 0.25\nworkload: gen:seed=7\n"; got != want {
		t.Fatalf("inline Format = %q, want %q", got, want)
	}
}

// Attempts stopped from outside the model — cancellation or a
// deadline, bare or wrapped in the kernel's CanceledError — must never
// be classified as simulation outcomes; real in-model terminations
// must.
func TestIsInterruptedClassification(t *testing.T) {
	for _, err := range []error{
		&sim.CanceledError{At: 5, Cause: context.DeadlineExceeded},
		&sim.CanceledError{At: 5, Cause: context.Canceled},
		context.Canceled,
		fmt.Errorf("attempt deadline 40ms exceeded: %w", context.DeadlineExceeded),
	} {
		if !isInterrupted(err) {
			t.Errorf("isInterrupted(%v) = false, want true", err)
		}
	}
	for _, err := range []error{
		&sim.DeadlockError{At: 1, Live: 2},
		&sim.CycleBudgetError{Budget: 10, Now: 10, Live: 1},
		errors.New("model blew up"),
	} {
		if isInterrupted(err) {
			t.Errorf("isInterrupted(%v) = true, want false", err)
		}
	}
}

// RunCtx fails only when the outcome differs from expect: or the run
// does not show its declared pathology:. A run that stops as declared
// yields the records of the accounting it produced, and an interrupted
// run returns its raw error whatever expect: says.
func TestRunHonoursExpect(t *testing.T) {
	const killed = "app: FLO52\nconfig: 16proc\nsteps: 1\nseed: 1645508699426838620\n" +
		"plan: ce:0@50000,ce:1@50000,ce:2@50000,ce:3@50000,ce:4@50000,ce:5@50000,ce:6@50000,ce:7@50000\n"
	parse := func(doc string) *Scenario {
		t.Helper()
		sc, err := Parse("killed", []byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	recs, err := Run(parse(killed+"expect: deadlock\n"), false)
	if err != nil {
		t.Fatalf("expected deadlock failed the run: %v", err)
	}
	events := 0.0
	for _, r := range recs {
		if r.Metric == MetricEvents {
			events = r.Value
		}
	}
	if events <= 0 {
		t.Fatalf("deadlocked run yielded no accounting: %+v", recs)
	}
	if _, err := Run(parse(killed+"expect: error\n"), false); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("deadlock against expect: error = %v, want a failure wrapping the deadlock", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, parse(killed+"expect: error\n"), false); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run = %v, want context.Canceled", err)
	}

	// The paper apps trip no detector, so a healthy FLO52 run that
	// declares a hot spot fails, in RunCtx and in Reproduce alike.
	healed := parse("app: FLO52\nconfig: 4proc\nsteps: 1\npathology: hotspot\n")
	if _, err := Run(healed, false); err == nil || !strings.Contains(err.Error(), "declared pathology hotspot not detected") {
		t.Fatalf("undetected pathology: RunCtx err = %v", err)
	}
	if _, err := Reproduce(context.Background(), healed); err == nil || !strings.Contains(err.Error(), "not detected") {
		t.Fatalf("undetected pathology: Reproduce err = %v", err)
	}
}
