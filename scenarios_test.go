package cedar_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/benchcmp"
	"repro/internal/perfect"
	"repro/internal/perfect/gen"
	"repro/internal/scenario"
)

var updateCaptures = flag.Bool("update-captures", false, "rewrite BENCH_scenarios.json and testdata/scaling/BENCH_scaling.json")

// scenarioCaptures pairs each committed scenario directory with the
// capture its records must reproduce byte for byte.
var scenarioCaptures = []struct{ dir, capture string }{
	{"testdata/scenarios", "BENCH_scenarios.json"},
	{"testdata/scaling", filepath.Join("testdata", "scaling", "BENCH_scaling.json")},
}

// TestScenarioCaptures runs the scenario suite and the machine-family
// scaling study sequentially and at four workers, and requires both
// encodings to equal the committed captures byte for byte. Every
// default metric is deterministic model output, so any drifted
// completion time, Table-2 row or event count fails, and the
// scenario.Diff table names the record that moved. With
// -update-captures the sequential run rewrites the capture, which the
// parallel run must then reproduce.
func TestScenarioCaptures(t *testing.T) {
	for _, c := range scenarioCaptures {
		t.Run(filepath.Base(c.dir), func(t *testing.T) {
			scs, err := scenario.LoadDir(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			if !*updateCaptures {
				if want, err = os.ReadFile(c.capture); err != nil {
					t.Fatalf("%v (run with -update-captures to record)", err)
				}
			}
			for _, workers := range []int{1, 4} {
				recs, err := scenario.RunAll(context.Background(), scs, workers, false)
				if err != nil {
					t.Fatalf("%d worker(s): %v", workers, err)
				}
				got, err := scenario.EncodeCapture(recs)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					if err := os.WriteFile(c.capture, got, 0o644); err != nil {
						t.Fatal(err)
					}
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%d worker(s): capture differs from %s (run with -update-captures after an intended model change)\n%s",
						workers, c.capture, captureDiff(want, recs))
				}
			}
		})
	}
}

// captureDiff renders the rows of scenario.Diff's table of the
// committed capture against fresh records that did not match, with its
// verdict.
func captureDiff(committed []byte, recs []scenario.Record) string {
	old, err := scenario.ReadCapture(bytes.NewReader(committed))
	if err != nil {
		return err.Error()
	}
	rep, err := scenario.Diff(old, recs)
	if err != nil {
		return err.Error()
	}
	verdict := "every record matches; only the encoding differs"
	if err := rep.Err(); err != nil {
		verdict = err.Error()
	}
	rep.Rows = slices.DeleteFunc(rep.Rows, func(r benchcmp.Row) bool { return r.Status == benchcmp.StatusOK })
	var b strings.Builder
	rep.WriteTable(&b, "committed", "fresh")
	b.WriteString(verdict)
	return b.String()
}

// TestPathologyScenariosRediscovered regenerates the two generator
// samples the committed fuzz-*.scenario documents were promoted from,
// detects their pathology on 8proc and shrinks each sample against it
// (gen.ShrinkApp, 60 runs), and requires the result to print exactly
// as the committed document: the workload-space search still finds and
// minimizes what the suite pins. That each committed document still
// shows its class is TestScenarioCaptures' job (scenario.RunCtx
// enforces pathology:).
func TestPathologyScenariosRediscovered(t *testing.T) {
	for _, c := range []struct{ spec, file string }{
		{"gen:seed=14,hot=1", "fuzz-hotspot-14.scenario"},
		{"gen:seed=36,jitter=1,hot=1", "fuzz-barrier-convoy-36.scenario"},
	} {
		t.Run(c.file, func(t *testing.T) {
			committed, err := scenario.LoadFile(filepath.Join("testdata", "scenarios", c.file))
			if err != nil {
				t.Fatal(err)
			}
			sp, err := gen.ParseSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			detect := func(a perfect.App) []string {
				run, err := cedar.SimulateRunCtx(context.Background(), a, arch.Cedar8, cedar.Options{})
				if err != nil {
					return nil
				}
				return run.Pathologies()
			}
			app := gen.Generate(sp)
			found := detect(app)
			if len(found) == 0 {
				t.Fatalf("%s shows no pathology on 8proc", c.spec)
			}
			shrunk, _ := gen.ShrinkApp(app, func(a perfect.App) bool {
				return slices.Contains(detect(a), found[0])
			}, 60)
			sc := scenario.Scenario{Name: strings.TrimSuffix(c.file, scenario.Ext), Config: arch.Cedar8.Name,
				Scale: 1, Pathology: found[0], Workload: string(perfect.PrintWorkload(shrunk))}
			if got, want := sc.Format(), committed.Format(); !bytes.Equal(got, want) {
				t.Fatalf("%s rediscovered as\n%s\nwant (testdata/scenarios/%s)\n%s", c.spec, got, c.file, want)
			}
		})
	}
}
