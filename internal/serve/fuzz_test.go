package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/scenario"
)

// FuzzJobSpec: Validate never panics on any spec, and the scenario an
// accepted spec becomes is a safe cache address — its canonical text
// parses back, prints to the same bytes, and resolves to the same
// workload, configuration and fault plan. An accepted simulate spec
// becomes exactly the experiment its fields name: no field splices
// keys into the document, and an app source that resolves directly
// resolves to the app the scenario runs. The seed corpus is
// the specs the service tests submit plus every committed scenario as
// a bench body.
func FuzzJobSpec(f *testing.F) {
	add := func(sp JobSpec) {
		f.Add(sp.Type, sp.App, sp.Workload, sp.Config, sp.Plan, sp.Bench, sp.Steps, sp.Seed, sp.MaxCycles)
	}
	for _, sp := range []JobSpec{
		smallSim,
		{Type: TypeSimulate, App: "FLO52", Config: "8proc", Steps: 1, Seed: 3327910339796038169, Plan: "ce:1@76414"},
		{Type: TypeSimulate, App: "FLO52", Config: "8proc", Plan: " ce:1@76414 ,", MaxCycles: 1000},
		{Type: TypeSimulate, Workload: inlineWorkloadDoc, Config: "8proc", Steps: 2},
		{Type: TypeSimulate, Workload: "gen:seed=7", Config: "8proc", Steps: 2},
		{Type: TypeSimulate, App: "gen:seed=1,gran=1e15", Config: "4proc"},
		{Type: TypeSimulate, App: "FLO52", Workload: inlineWorkloadDoc, Config: "8proc"},
		{Type: TypeSimulate, Workload: "apps.workload", Config: "8proc"},
		{Type: TypeSimulate, Workload: "steps: 2\nbogus: 1\n", Config: "8proc"},
		{Type: TypeSimulate, App: "FLO52\nplan: ce:1@5", Config: "8proc"},
		{Type: TypeSimulate, App: "FLO52", Config: "8proc\nplan: ce:1@5"},
		{Type: TypeSimulate, App: "NOPE", Config: "8proc"},
		{Type: TypeSimulate, App: "FLO52", Config: "9proc"},
		{Type: TypeSimulate, App: "FLO52", Config: "8proc", Plan: "ce:99@1"},
		{Type: TypeBench, Bench: okScenario},
		{Type: TypeBench, Bench: okScenario + "max_cycles: 5000\n", MaxCycles: 1e9},
		{Type: TypeBench, Bench: benchDoc},
		{Type: TypeBench, Bench: "app: FLO52\nconfig: 8proc\nbogus: 1\n"},
		{Type: "mystery"},
		{},
	} {
		add(sp)
	}
	for _, dir := range []string{"../../testdata/scenarios", "../../testdata/faultcorpus", "../../testdata/scaling"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*"+scenario.Ext))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed scenarios in %s (%v)", dir, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			add(JobSpec{Type: TypeBench, Bench: string(data)})
		}
	}
	f.Fuzz(func(t *testing.T, typ, app, workload, config, plan, bench string, steps int, seed, maxCycles int64) {
		sp := JobSpec{Type: typ, App: app, Workload: workload, Config: config, Plan: plan,
			Bench: bench, Steps: steps, Seed: seed, MaxCycles: maxCycles}
		sc, err := sp.Validate()
		if err != nil {
			return
		}
		doc := sc.Format()
		again, err := scenario.Parse(sc.Name, doc)
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\n%s", err, doc)
		}
		if got := again.Format(); !bytes.Equal(got, doc) {
			t.Fatalf("canonical text is not a fixpoint:\n%s\nprints as\n%s", doc, got)
		}
		app1, cfg1, err1 := sc.Resolve()
		app2, cfg2, err2 := again.Resolve()
		if err1 != nil || err2 != nil {
			t.Fatalf("accepted scenario does not resolve: %v, %v", err1, err2)
		}
		if w1, w2 := perfect.PrintWorkload(app1), perfect.PrintWorkload(app2); !bytes.Equal(w1, w2) {
			t.Fatalf("canonical text resolves to another workload:\n%s\nversus\n%s", w1, w2)
		}
		if !reflect.DeepEqual(cfg1, cfg2) {
			t.Fatalf("canonical text resolves to configuration %s, want %s", cfg2.Name, cfg1.Name)
		}
		if !reflect.DeepEqual(sc.Plan, again.Plan) {
			t.Fatalf("canonical text resolves to plan %v, want %v", again.Plan, sc.Plan)
		}
		if typ != TypeSimulate {
			return
		}
		var want faults.Plan
		if plan != "" {
			want, _ = faults.Parse(plan)
		}
		if sc.Config != strings.TrimSpace(config) || sc.Steps != steps || sc.Seed != seed || sc.MaxCycles != maxCycles ||
			!reflect.DeepEqual(sc.Plan, want) || sc.Scale != 1 || sc.Expect != "" || len(sc.Metrics) > 0 {
			t.Fatalf("spec %+v became another experiment:\n%s", sp, doc)
		}
		src := app + workload
		if direct, err := (perfect.Resolver{}).Resolve(src); err == nil {
			if w, d := perfect.PrintWorkload(app1), perfect.PrintWorkload(direct); !bytes.Equal(w, d) {
				t.Fatalf("spec source %q resolves to\n%s\nbut its scenario runs\n%s", src, d, w)
			}
		}
	})
}
