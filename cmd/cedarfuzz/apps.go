package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/perfect"
	"repro/internal/perfect/gen"
	"repro/internal/scenario"
)

// appsCorpus is the app-space regression gate: every scenario in the
// directory that declares a pathology: class is run and its run must
// actually exhibit that pathology (cedar.Run.Pathologies). A promoted
// pathological workload that quietly heals — a model change, a
// detector drift — fails the gate instead of rotting in the corpus.
// Scenarios run concurrently; results print in directory order.
func appsCorpus(dir string, parallel int) (failures int) {
	scs, err := scenario.LoadDir(dir)
	if err != nil {
		fatalf(2, "%v", err)
	}
	var gated []*scenario.Scenario
	for _, sc := range scs {
		if sc.Pathology != "" {
			gated = append(gated, sc)
		}
	}
	if len(gated) == 0 {
		fmt.Printf("apps corpus %s: no pathology declarations\n", dir)
		return 0
	}
	errs := engine.Map(parallel, gated, func(_ int, sc *scenario.Scenario) error {
		got, err := detectScenario(sc)
		if err != nil {
			return err
		}
		for _, p := range got {
			if p == sc.Pathology {
				return nil
			}
		}
		return fmt.Errorf("declared pathology %q not detected (run shows %v)", sc.Pathology, got)
	})
	for i, err := range errs {
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "cedarfuzz: apps corpus %s: %v\n", gated[i].Name, err)
			continue
		}
		fmt.Printf("apps corpus %s: %s ok\n", gated[i].Name, gated[i].Pathology)
	}
	fmt.Printf("apps corpus %s: %d scenario(s), %d failure(s)\n", dir, len(gated), failures)
	return failures
}

// detectScenario runs one pathology scenario and returns the detected
// classes.
func detectScenario(sc *scenario.Scenario) ([]string, error) {
	run, err := sc.Simulate(context.Background())
	if err != nil {
		return nil, err
	}
	return run.Pathologies(), nil
}

// appsOutcome is one generator sample's verdict.
type appsOutcome struct {
	spec   gen.Spec
	paths  []string    // pathologies of the raw sample
	shrunk perfect.App // minimized reproduction (set when paths is non-empty)
	runs   int         // keep invocations the shrink spent
	err    error
}

// appsSweep samples the generator space for pathological workloads:
// every sample that trips a detector is ddmin-shrunk (phases, then
// knobs) while its first pathology keeps reproducing, and printed as a
// ready-to-promote inline-workload scenario. Sample seeds derive from
// the master seed, so a finding reproduces from the logged -seed
// alone. Findings are the sweep's purpose, not failures — only a
// sample that errors counts against the exit status.
func appsSweep(configName string, seed int64, n, shrinkRuns, parallel int, promoteDir string) (failures int) {
	cfg, err := cli.Config(configName)
	if err != nil {
		fatalf(2, "%v", err)
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	fmt.Printf("apps sweep: %d sample(s) on %s, seed %d (reproduce with -apps -quick -seed %d)\n",
		n, cfg.Name, seed, seed)

	specs := make([]gen.Spec, n)
	for i := range specs {
		sp := gen.Default()
		sp.Seed = seed + int64(i)
		// Alternate the sampling bias so every sweep hunts each corner:
		// odd samples aim at module hot-spots, every fourth allows full
		// work jitter (the barrier-convoy regime).
		if i%2 == 1 {
			sp.Hot = 1
		}
		if i%4 == 3 {
			sp.Jitter = 1
		}
		specs[i] = sp
	}
	results := engine.Map(parallel, specs, func(_ int, sp gen.Spec) appsOutcome {
		o := appsOutcome{spec: sp}
		app := gen.Generate(sp)
		detect := func(a perfect.App) []string {
			run, err := cedar.SimulateRunErr(a, cfg, cedar.Options{})
			if err != nil {
				return nil
			}
			return run.Pathologies()
		}
		o.paths = detect(app)
		if len(o.paths) == 0 {
			return o
		}
		target := o.paths[0]
		o.shrunk, o.runs = gen.ShrinkApp(app, func(c perfect.App) bool {
			for _, p := range detect(c) {
				if p == target {
					return true
				}
			}
			return false
		}, shrinkRuns)
		return o
	})

	found := 0
	for i, o := range results {
		if o.err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "cedarfuzz: apps sweep %d/%d (%s): %v\n", i+1, n, o.spec, o.err)
			continue
		}
		if len(o.paths) == 0 {
			continue
		}
		found++
		fmt.Printf("apps sweep %d/%d: %s -> %s (shrunk to %d phase(s) in %d run(s))\n",
			i+1, n, o.spec, strings.Join(o.paths, ","), len(o.shrunk.Phases), o.runs)
		doc := promotedScenario(o, cfg.Name, seed)
		if promoteDir != "" {
			path := filepath.Join(promoteDir, promotedName(o)+scenario.Ext)
			if err := os.WriteFile(path, doc, 0o644); err != nil {
				fatalf(1, "promoting %s: %v", path, err)
			}
			fmt.Printf("  promoted to %s\n", path)
		} else {
			fmt.Printf("%s", indent(doc, "  "))
		}
	}
	fmt.Printf("apps sweep: %d of %d sample(s) pathological\n", found, n)
	return failures
}

// promotedName is the scenario name a finding is promoted under:
// pathology class plus the sample seed that reproduces it.
func promotedName(o appsOutcome) string {
	return fmt.Sprintf("fuzz-%s-%d", o.paths[0], o.spec.Seed)
}

// promotedScenario renders a finding as a committable .scenario file:
// provenance comment, the pathology: declaration the apps corpus gate
// enforces, and the shrunk workload inline (the document IS the app —
// no registry entry, no external file).
func promotedScenario(o appsOutcome, cfgName string, masterSeed int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Found by cedarfuzz -apps -quick -seed %d (sample %s),\n", masterSeed, o.spec)
	fmt.Fprintf(&b, "# shrunk to this minimal reproduction. The pathology: line makes\n")
	fmt.Fprintf(&b, "# cedarfuzz -apps re-verify the workload still exhibits it.\n")
	sc := scenario.Scenario{Name: promotedName(o), Config: cfgName, Scale: 1,
		Pathology: o.paths[0], Workload: string(perfect.PrintWorkload(o.shrunk))}
	b.Write(sc.Format())
	return b.Bytes()
}

// indent prefixes every non-empty line.
func indent(doc []byte, prefix string) []byte {
	var b bytes.Buffer
	for _, line := range strings.Split(strings.TrimRight(string(doc), "\n"), "\n") {
		if line == "" {
			b.WriteByte('\n')
			continue
		}
		b.WriteString(prefix)
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
