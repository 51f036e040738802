// Command cedarfuzz is the fault-scenario regression and fuzzing
// driver: it replays the checked-in corpus of .scenario documents
// (every entry must meet its declared expect:, twice, with
// byte-identical statfx output — scenario.Reproduce) and then sweeps
// randomized fail-stop schedules across the page-fault windows of a
// healthy run — the schedule family that exposed the fail-stop
// page-fault deadlock. Any scenario that errors is delta-debugged down
// to a minimal reproduction and printed as a ready-to-commit corpus
// document.
//
// Usage:
//
//	cedarfuzz [-corpus testdata/faultcorpus] [-quick] [-n 25]
//	          [-seed S] [-app FLO52] [-config 8proc] [-steps 1]
//	          [-shrink 60] [-parallel N]
//	cedarfuzz -apps [-scenarios testdata/scenarios] [-quick] [-n 25]
//	          [-seed S] [-config 8proc] [-shrink 60] [-promote dir]
//
// Without -quick only the corpus is replayed (cheap, deterministic —
// the CI regression gate). With -quick the randomized sweep runs too;
// its seed defaults to the wall clock so every run covers fresh
// schedules, and is always printed so a failure can be reproduced by
// re-running with -seed. Exit status: 0 all scenarios behaved, 1
// otherwise, 2 bad invocation.
//
// -apps switches from fault schedules to workload space. The corpus
// leg runs every scenario in -scenarios that declares a pathology:
// class and verifies the run still exhibits it (the detectors in
// cedar.Run.Pathologies — hot-spot modules, barrier convoys, page
// storms). The -quick leg samples the parametric workload generator
// (internal/perfect/gen) with seeds derived from the logged master
// seed, runs every sample, and ddmin-shrinks each pathological one to
// a minimal reproduction, printed as a ready-to-commit inline-workload
// scenario — or written into -promote's directory. Sweep findings are
// the point, not failures; only samples that error count against the
// exit status.
//
// Corpus replays and sweep scenarios are independent simulations and
// run through the deterministic parallel engine; -parallel bounds the
// worker count (default GOMAXPROCS, 1 forces sequential). Results are
// reported in corpus/schedule order, so the gate's output and exit
// status are identical at any setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	cedar "repro"
	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/scenario"
)

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cedarfuzz: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	corpusDir := flag.String("corpus", "testdata/faultcorpus", "regression corpus directory (*.scenario files)")
	quick := flag.Bool("quick", false, "also run the bounded randomized sweep (fault schedules, or generator samples with -apps)")
	n := flag.Int("n", 25, "sweep: number of randomized scenarios (or generator samples)")
	seed := flag.Int64("seed", 0, "sweep: RNG seed (0 = wall clock; the used seed is always printed)")
	appName := flag.String("app", "FLO52", "sweep: application (a registry name, a gen: spec, a .workload file, or an inline document)")
	configName := flag.String("config", "8proc", "sweep: machine configuration")
	steps := cli.StepsFlag(flag.CommandLine, 1, "sweep: timestep count")
	shrinkRuns := flag.Int("shrink", 60, "max replays spent shrinking a failing scenario (or pathological workload)")
	parallel := cli.ParallelFlag(flag.CommandLine, "concurrent replays (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	apps := flag.Bool("apps", false, "app-space mode: gate the pathology scenarios, then (with -quick) sweep the workload generator")
	scenariosDir := flag.String("scenarios", "testdata/scenarios", "app-space mode: scenario directory with pathology: declarations")
	promote := flag.String("promote", "", "app-space mode: write each shrunk pathological workload into this directory as a .scenario file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected arguments %v", flag.Args())
	}

	failures := 0
	if *apps {
		failures += appsCorpus(*scenariosDir, *parallel)
		if *quick {
			failures += appsSweep(*configName, *seed, *n, *shrinkRuns, *parallel, *promote)
		}
	} else {
		failures += replayCorpus(*corpusDir, *parallel)
		if *quick {
			failures += sweep(*appName, *configName, *steps, *seed, *n, *shrinkRuns, *parallel)
		}
	}
	if failures > 0 {
		fatalf(1, "%d scenario(s) misbehaved", failures)
	}
}

// replayCorpus replays every checked-in scenario twice: the outcome
// must match the entry's expectation and the two runs must produce
// byte-identical statfx output (scenario.Reproduce). Entries run
// concurrently through the engine pool; results print in corpus order.
func replayCorpus(dir string, parallel int) (failures int) {
	scs, err := scenario.LoadDir(dir)
	if err != nil {
		fatalf(2, "%v", err)
	}
	errs := engine.Map(parallel, scs, func(_ int, sc *scenario.Scenario) error {
		_, err := scenario.Reproduce(context.Background(), sc)
		return err
	})
	for i, err := range errs {
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "cedarfuzz: %s: %v\n", scs[i].File, err)
			continue
		}
		fmt.Printf("corpus %s: %s ok\n", scs[i].File, scs[i].Expectation())
	}
	fmt.Printf("corpus %s: %d scenario(s), %d failure(s)\n", dir, len(scs), failures)
	return failures
}

// sweep fuzzes fail-stop schedules across the page-fault windows of a
// healthy run. Failing scenarios are shrunk and printed as corpus
// documents. Scenarios (including any shrinking, which is per-scenario
// deterministic) run concurrently; results print in schedule order.
func sweep(appName, configName string, steps int, seed int64, n, shrinkRuns, parallel int) (failures int) {
	app, err := cli.App(appName)
	if err != nil {
		fatalf(2, "%v", err)
	}
	cfg, err := cli.Config(configName)
	if err != nil {
		fatalf(2, "%v", err)
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	fmt.Printf("sweep: %s on %s, %d scenario(s), seed %d (reproduce with -seed %d)\n",
		appName, cfg.Name, n, seed, seed)

	opts := cedar.Options{Steps: steps}
	base, err := scenario.ForRun("sweep", app, cfg, opts)
	if err != nil {
		fatalf(2, "%v", err)
	}
	windows, err := cedar.FaultWindows(app, cfg, opts)
	if err != nil {
		fatalf(1, "healthy window-discovery run failed: %v", err)
	}
	if len(windows) == 0 {
		fatalf(1, "no page-fault windows on the healthy run; nothing to aim at")
	}
	fmt.Printf("sweep: %d page-fault window(s), first [%d, %d]\n",
		len(windows), int64(windows[0].Start), int64(windows[0].End))

	// CE 0 leads the main task; killing it deadlocks the machine by
	// design (the helpers starve), which would drown real hand-off bugs
	// in expected failures. Kill any other CE.
	var ces []int
	for ce := 1; ce < cfg.CEs(); ce++ {
		ces = append(ces, ce)
	}
	plans := faults.SweepTimes(nil, windows, ces, cfg.GMModules, seed, n)
	for _, plan := range plans {
		if err := plan.Validate(cfg); err != nil {
			fatalf(1, "sweep generated an invalid plan: %v", err)
		}
	}
	type outcome struct {
		sc     *scenario.Scenario
		err    error
		shrunk *scenario.Scenario
		runs   int
		serr   error
	}
	results := engine.Map(parallel, plans, func(i int, plan faults.Plan) outcome {
		sc := *base
		sc.Name, sc.Plan = fmt.Sprintf("sweep-%d-%d", seed, i+1), plan
		o := outcome{sc: &sc}
		if _, o.err = sc.Simulate(context.Background()); o.err != nil {
			o.shrunk, o.runs, o.serr = scenario.Shrink(context.Background(), &sc, shrinkRuns)
		}
		return o
	})
	for i, o := range results {
		if o.err == nil {
			fmt.Printf("sweep %3d/%d: ok  %s\n", i+1, n, o.sc.Plan)
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "cedarfuzz: sweep %d/%d FAILED (%v)\n  plan: %s\n",
			i+1, n, o.err, o.sc.Plan)
		if o.serr != nil {
			fmt.Fprintf(os.Stderr, "  shrink failed: %v\n", o.serr)
			continue
		}
		fmt.Fprintf(os.Stderr, "  shrunk (%d runs); add it to the corpus with a comment naming the bug:\n%s",
			o.runs, indent(o.shrunk.Format(), "    "))
	}
	return failures
}
