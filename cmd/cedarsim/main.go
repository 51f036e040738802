// Command cedarsim runs one application on one Cedar configuration
// with full instrumentation and prints the complete measurement
// report: completion time, speedup-relevant statistics, the
// completion-time breakdown, the user-time breakdown per task, the
// detailed OS overhead table, and the contention estimate (when the
// 1-processor baseline is also run).
//
// Usage:
//
//	cedarsim [-app FLO52 | gen:seed=7,hot=1 | file.workload]
//	         [-list-apps] [-scenario file.scenario|dir]
//	         [-ces 32] [-steps N] [-no-baseline]
//	         [-config 64proc|32flat] [-clusters N -ces-per-cluster N
//	          -gm-modules N -stages N -degree N] [-list-configs]
//	         [-fault ce:2@1e6,module:17@5e5]
//	         [-record-scenario new.scenario]
//	         [-trace out.json] [-profile out.folded] [-series out.csv]
//	         [-metrics out.prom|out.json|out.csv] [-hpm out.txt]
//	         [-parallel N] [-statfx] [-server http://host:8344]
//
// Every local invocation takes one path: it makes the measured run,
// the only one armed and exported, together with the reference runs its
// view sets it against — the 1-processor baseline for the report
// (unless -no-baseline), that baseline and the healthy run on the same
// machine for -fault, none for -statfx. They execute through the
// deterministic parallel engine in one call; -parallel bounds the
// worker count (default GOMAXPROCS, 1 forces sequential). Each
// simulation owns its kernel and seed, so the printed output is
// identical at any setting.
//
// The machine defaults to the paper configuration selected by -ces
// (1, 4, 8, 16, or 32 — the closed list the paper measures). -config
// selects any named family member (see -list-configs), including
// 32flat, the unclustered machine of the paper's Section 6; the
// parametric flags build a custom machine validated by
// arch.Config.Validate, whose error names the violated topology
// constraint. The selection lives in internal/cli.
//
// With -fault, the measured run is the degraded one, and the fault
// activations and a baseline-vs-degraded overhead-decomposition delta
// table are printed in place of the report; that table needs the
// baseline, so -fault refuses -no-baseline unless -statfx is set.
// -record-scenario writes
// the fault run — with -statfx too — as a new .scenario document
// (scenario.ForRun: the app — inline when it is not a registry app —
// config, steps, resolved seed, plan, and the observed outcome as
// expect:). It refuses a custom machine and an existing file before
// anything runs. The simulation is deterministic in virtual time, so a
// recorded document is a complete, stable reproduction of the run it
// came from: -scenario replays it.
//
// The application is a workload source: -app takes a registry name
// (see -list-apps), a gen: spec sampling the parametric generator
// (internal/perfect/gen), a .workload document file, or an inline
// document — the same sources every command's -app accepts. -scenario
// runs a .scenario document, or every one in a directory, through the
// engine pool at -parallel, checks each one's expect: outcome and
// pathology:, and prints the canonical record capture — byte-identical
// to the committed capture of the directory (BENCH_scenarios.json,
// testdata/scaling/BENCH_scaling.json) and to a cedarserved bench job
// of the same document. It reads only -parallel, -cpuprofile and
// -memprofile.
//
// -statfx prints only the run's canonical statfx accounting block
// (Run.StatfxText). -server submits the same invocation to a running
// cedarserved instance (see cmd/cedarserved) and prints the job's
// result — byte-identical to the -statfx output for the same app,
// configuration, steps, and fault plan. Any -app source other than a
// registry name travels to the server inline as the canonical document
// text, so one workload caches under one key however it was spelled.
// -server and -scenario refuse (exit 2, naming each) any explicitly
// set flag they would drop: -server carries no -chunk, -tree, export
// flag or -record-scenario to the service.
//
// Each observability flag arms only what its artifact reads: -trace
// arms the cedarhpm monitor and writes the Chrome/Perfetto
// trace-event file folded from it (load it at ui.perfetto.dev),
// -series arms the time-series collector and writes the samples as
// CSV, and -profile writes folded stacks weighted by virtual cycles
// (feed to flamegraph.pl or inferno) from the CE accounts, arming
// nothing. -metrics writes the run's full metric registry snapshot —
// the one export path for a run's numbers, the same source of truth
// StatfxText and cedarserved's /metrics render — in the format the
// extension selects (.prom, .json, or CSV); it arms nothing either.
// The snapshot holds the result decomposition, the hardware counters
// (module utilization, network ports and the hottest port, cluster
// caches, page faults) and, when the monitor is armed, the hpm event
// counts and the barrier and helper-wait time per CE. -hpm arms the
// cedarhpm monitor and offloads its trace buffer, as the paper's
// workstation did: the raw records, one "at ce event aux" line each.
// Every one of these exports the measured run — with -fault the
// degraded one — and works with -statfx too, leaving its stdout
// unchanged.
// Whenever a bounded instrumentation buffer overflowed, a one-line
// warning on stderr reports the total dropped-event count.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/profio"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// printApps lists the built-in application registry — the names the
// resolver accepts as bare -app values (the -list-apps output).
func printApps() {
	fmt.Printf("%-12s %6s %7s %11s %12s\n",
		"name", "steps", "phases", "iterations", "data words")
	for _, a := range perfect.Registry() {
		fmt.Printf("%-12s %6d %7d %11d %12d\n",
			a.Name, a.Steps, len(a.Phases), a.TotalIterations(), a.DataWords)
	}
}

// runScenarios executes a .scenario file, or every one in a
// directory, through the engine pool, checks each declared outcome,
// and prints the canonical record capture — byte-diffable against the
// directory's committed capture or a cedarserved bench job result.
// Exit status 1 when a run misses its document's expect: or
// pathology:.
func runScenarios(path string, parallel int) {
	var scs []*scenario.Scenario
	var err error
	if fi, serr := os.Stat(path); serr == nil && fi.IsDir() {
		scs, err = scenario.LoadDir(path)
	} else {
		var sc *scenario.Scenario
		sc, err = scenario.LoadFile(path)
		scs = []*scenario.Scenario{sc}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(2)
	}
	recs, err := scenario.RunAll(context.Background(), scs, parallel, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	out, err := scenario.EncodeCapture(recs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
}

// usageErr prints the message plus flag usage and exits with status 2
// (bad invocation).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cedarsim: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	appName := flag.String("app", "FLO52", "application: a registry name (see -list-apps), a gen: spec, a .workload file, or an inline document")
	listApps := flag.Bool("list-apps", false, "print the built-in application registry and exit")
	scenarioPath := flag.String("scenario", "", "run a .scenario file, or every one in a directory, check each expect: outcome, and print the canonical record capture")
	machine := cli.MachineFlags(flag.CommandLine, 32)
	steps := cli.StepsFlag(flag.CommandLine, 0, "override timestep count (0 = app default)")
	noBase := flag.Bool("no-baseline", false, "skip the 1-processor baseline (no contention estimate)")
	chunk := flag.Int("chunk", 0, "XDOALL pickup chunk size (>1 amortizes the iteration lock)")
	tree := flag.Int("tree", 0, "combining-tree fanout for the unclustered machine's barriers (-config 32flat; >1 enables)")
	faultSpec := flag.String("fault", "", "fault plan, e.g. ce:2@1e6,module:17@5e5 (see internal/faults)")
	recordPath := flag.String("record-scenario", "", "with -fault: write the run as a new .scenario document at this path")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file")
	profilePath := flag.String("profile", "", "write a folded-stack profile weighted by virtual cycles")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the simulator process (wall-clock, not virtual cycles)")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof heap profile at exit")
	seriesPath := flag.String("series", "", "write the sampled time series as CSV")
	metricsPath := flag.String("metrics", "", "write the run's metric registry snapshot (Prometheus text if *.prom, JSON if *.json, CSV otherwise)")
	hpmPath := flag.String("hpm", "", "write the raw cedarhpm trace records, one \"at ce event aux\" line each")
	parallel := cli.ParallelFlag(flag.CommandLine, "concurrent simulations (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	serverURL := flag.String("server", "", "submit the run to a cedarserved instance at this URL and print its canonical statfx result")
	statfx := flag.Bool("statfx", false, "run locally and print only the canonical statfx accounting block (byte-diffable against a -server run)")
	flag.Parse()

	if machine.List {
		cli.PrintConfigs(os.Stdout)
		return
	}
	if *listApps {
		printApps()
		return
	}
	if *scenarioPath != "" {
		refuseIgnored("scenario", "parallel", "cpuprofile", "memprofile")
	}
	if *serverURL != "" {
		// -statfx and -no-baseline name what a -server run prints anyway;
		// -parallel cannot change it.
		refuseIgnored("server", "app", "steps", "fault", "statfx", "no-baseline", "parallel",
			"config", "ces", "clusters", "ces-per-cluster", "gm-modules", "stages", "degree",
			"cpuprofile", "memprofile")
	}
	stopProf, err := profio.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "cedarsim: profile: %v\n", err)
		}
	}()
	if *scenarioPath != "" {
		runScenarios(*scenarioPath, *parallel)
		return
	}
	if *recordPath != "" && *faultSpec == "" {
		usageErr("-record-scenario needs a -fault plan to record")
	}
	if *chunk < 0 {
		usageErr("-chunk %d is negative", *chunk)
	}
	if *tree < 0 {
		usageErr("-tree %d is negative", *tree)
	}
	app, err := cli.App(*appName)
	if err != nil {
		usageErr("%v", err)
	}
	cfg, err := machine.Config()
	if err != nil {
		usageErr("%v", err)
	}

	// -server prints the service's canonical statfx block and nothing
	// else, so a local -statfx and a remote run of the same invocation
	// diff byte for byte.
	if *serverURL != "" {
		if machine.Custom() {
			usageErr("-server needs a named configuration the service knows (see -list-configs)")
		}
		runRemote(*serverURL, app, remoteWorkload(*appName, app), cfg, *steps, *faultSpec)
		return
	}

	// The degraded comparison always runs the 1-processor base and the
	// healthy machine; -statfx runs neither.
	if *faultSpec != "" && *noBase && !*statfx {
		usageErr("-fault ignores -no-baseline")
	}
	if strings.HasSuffix(*seriesPath, ".prom") {
		usageErr("-series writes CSV; -metrics %s writes the run's metrics as Prometheus text", *seriesPath)
	}
	var plan faults.Plan
	if *faultSpec != "" {
		if plan, err = faults.Parse(*faultSpec); err != nil {
			usageErr("%v", err)
		}
		if err := plan.Validate(cfg); err != nil {
			usageErr("%v", err)
		}
	}
	// opts runs the healthy reference runs; the measured run adds the
	// fault plan and arms what the exported artifacts read.
	opts := cedar.Options{Steps: *steps, XdoallChunk: *chunk, TreeFanout: *tree}
	measured := opts
	measured.Faults = plan
	var rec *scenario.Scenario
	if *recordPath != "" {
		rec = recordable(*recordPath, app, cfg, measured)
	}
	exp := exporter{trace: *tracePath, profile: *profilePath, series: *seriesPath, metrics: *metricsPath, hpm: *hpmPath}
	exp.arm(&measured)

	// The measured run and the reference runs its view sets it against
	// are independent simulations; run them through the engine pool.
	// The report needs the 1-processor base (Tp_ideal); the degraded
	// comparison needs that base and the healthy run on cfg.
	var run, base1p, healthy *cedar.Run
	var runErr, base1pErr, healthyErr error
	jobs := []func(){
		func() { run, runErr = cedar.SimulateRunErr(app, cfg, measured) },
	}
	base := func() { base1p, base1pErr = cedar.SimulateRunErr(app, arch.Cedar1, opts) }
	switch {
	case *statfx:
	case plan != nil:
		jobs = append(jobs, base, func() { healthy, healthyErr = cedar.SimulateRunErr(app, cfg, opts) })
	case !*noBase && cfg.CEs() > 1:
		jobs = append(jobs, base)
	}
	engine.Do(*parallel, jobs...)
	if err := errors.Join(base1pErr, healthyErr); err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: baseline run failed: %v\n", err)
		os.Exit(1)
	}
	if run == nil { // the simulator refused its inputs; nothing ran
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", runErr)
		os.Exit(1)
	}
	// A run that ended abnormally still exports and records its
	// accounting up to the failure: with -fault, the trace shows the
	// fault windows.
	exp.write(run)
	if rec != nil {
		record(rec, *recordPath, runErr)
	}

	// The degraded view reports a failed run itself; the others do not
	// print one.
	switch {
	case plan != nil && !*statfx:
		printDegraded(run, runErr, base1p, healthy, plan)
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", runErr)
		os.Exit(1)
	case *statfx:
		fmt.Print(run.StatfxText())
	default:
		printReport(run.Result, base1p, cfg)
	}
}

// refuseIgnored exits 2 naming every explicitly set flag that -mode
// does not read, other than -mode itself: a silently dropped flag would
// print a result the invocation did not ask for.
func refuseIgnored(mode string, reads ...string) {
	var ignored []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != mode && !slices.Contains(reads, f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		usageErr("-%s ignores %s", mode, strings.Join(ignored, ", "))
	}
}

// printReport prints the full measurement report of res, set against
// the 1-processor run base1p when there is one.
func printReport(res *core.Result, base1p *cedar.Run, cfg arch.Config) {
	var base *core.Result
	if base1p != nil {
		base = base1p.Result
		// Normalize both to the paper's CT1 for readable seconds.
		if paper := perfect.PaperCT1(res.App); paper > 0 {
			scale := paper / arch.Seconds(int64(base.CT))
			base.Scale, res.Scale = scale, scale
		}
	}

	fmt.Printf("%s on %s (%d CEs, %d clusters)\n", res.App, cfg.Name, cfg.CEs(), cfg.Clusters)
	fmt.Printf("completion time: %.1f s (%.0f cycles)\n", res.CTSeconds(), float64(res.CT))
	if base != nil {
		fmt.Printf("speedup over 1 processor: %.2f\n", res.Speedup(base))
	}
	fmt.Printf("average concurrency: %.2f (sampled: %.2f)\n",
		res.MachineConcurrency(), res.SampledConcurrency)
	fmt.Printf("OS share of CT (machine average): %.1f%%\n\n", res.OSShare()*100)

	fmt.Println("Completion-time breakdown per cluster task (Figure 3 view):")
	for c := 0; c < cfg.Clusters; c++ {
		b := res.ClusterBreakdown(c)
		fmt.Printf("  cluster %d: user %.1f%%  system %.1f%%  interrupt %.1f%%  spin %.2f%%\n",
			c, b.User*100, b.System*100, b.Interrupt*100, b.Spin*100)
	}
	fmt.Println()

	fmt.Println("User-time breakdown per task (Figures 4-9 view, % of CT):")
	for _, t := range res.Tasks() {
		name := "main"
		if !t.IsMain {
			name = fmt.Sprintf("helper%d", t.Cluster)
		}
		fmt.Printf("  %-8s serial %.1f  mc %.1f  iters %.1f  setup %.1f  pick %.1f  barrier %.1f  hwait %.1f  | overhead %.1f\n",
			name, t.Serial*100, t.MCLoop*100, t.Iter*100,
			t.Setup*100, t.Pick*100, t.Barrier*100, t.HelperWait*100,
			t.OverheadFraction()*100)
	}
	fmt.Println()

	fmt.Println("Detailed OS overheads (Table 2 view, per-CE average):")
	for _, row := range res.OSDetail() {
		fmt.Printf("  %-16s %8.2f s  %5.2f%%  (%d events)\n",
			row.Category, row.Seconds, row.Percent, row.Count)
	}
	fmt.Println()

	pf := make([]float64, cfg.Clusters)
	for c := range pf {
		pf[c] = res.ParallelFraction(c)
	}
	fmt.Printf("parallel fraction per cluster: %.3f\n", pf)
	fmt.Printf("parallel loop concurrency per cluster (Table 3): %.2f\n", res.ParallelLoopConcurrency())

	if base != nil {
		cont, err := core.ContentionOverhead(base, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "contention estimate failed: %v\n", err)
		} else {
			fmt.Printf("\nGM & network contention (Table 4 view):\n")
			fmt.Printf("  Tp_actual %.0f s   Tp_ideal %.0f s   Ov_cont %.1f%% of CT\n",
				res.Seconds(cont.TpActual), res.Seconds(cont.TpIdeal), cont.OvCont)
		}
	}

	var spin float64
	for _, a := range res.Accounts {
		spin += float64(a.Get(metrics.CatOSSpin))
	}
	fmt.Printf("\nkernel lock spin (machine total): %.3f%% of CT x CEs\n",
		spin/float64(int64(res.CT)*int64(cfg.CEs()))*100)
}

// exporter writes the observability outputs of a run to the paths the
// flags selected (empty paths are skipped).
type exporter struct {
	trace, profile, series, metrics, hpm string
}

// arm arms exactly what the selected artifacts read: the trace and
// -hpm read the hpm monitor's stream, the series CSV reads the
// collector. The folded profile and -metrics read only the accounts
// and the metric registry, which every run keeps.
func (e exporter) arm(opts *cedar.Options) {
	if e.trace != "" || e.hpm != "" {
		opts.TraceCapacity = 1 << 22
	}
	if e.series != "" {
		opts.Observe = true
	}
}

// write exports the run's trace, profile, series, metric registry and
// hpm files, then checks the run's drop counters. Export failures are
// fatal: an invocation that asked for an artifact and cannot produce
// it should not exit 0.
func (e exporter) write(run *cedar.Run) {
	if e.trace != "" {
		e.toFile(e.trace, func(f *os.File) error {
			return obs.WriteTrace(f, run.TraceBundle())
		})
	}
	if e.profile != "" {
		e.toFile(e.profile, func(f *os.File) error {
			return obs.WriteFolded(f, run.Result.App, run.Result.CT, run.Machine.Accounts())
		})
	}
	if e.series != "" {
		e.toFile(e.series, func(f *os.File) error {
			return obs.WriteCSV(f, run.Series)
		})
	}
	if e.metrics != "" {
		snap := run.Metrics().Snapshot()
		e.toFile(e.metrics, func(f *os.File) error {
			switch {
			case strings.HasSuffix(e.metrics, ".prom"):
				return metricreg.WriteProm(f, snap, map[string]string{
					"app": run.Result.App, "config": run.Machine.Cfg.Name,
				})
			case strings.HasSuffix(e.metrics, ".json"):
				return metricreg.WriteJSON(f, snap)
			default:
				return metricreg.WriteCSV(f, snap)
			}
		})
	}
	if e.hpm != "" {
		e.toFile(e.hpm, func(f *os.File) error {
			bw := bufio.NewWriter(f)
			for _, rec := range run.Monitor.Trace() {
				fmt.Fprintf(bw, "%d %d %s %d\n", rec.At, rec.CE, rec.Event, rec.Aux)
			}
			return bw.Flush()
		})
	}
	warnDropped(run)
}

// warnDropped warns on stderr when a run's bounded instrumentation
// buffers overflowed — silent drops would skew any fold over the trace
// (the Figure 4 decompositions). Stderr keeps -statfx stdout
// byte-identical.
func warnDropped(run *cedar.Run) {
	n := run.DroppedEvents()
	if n == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"cedarsim: warning: %d instrumentation event(s) dropped (trace or series buffer full); raise the trace capacity or series capacity before trusting trace folds\n", n)
}

func (e exporter) toFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	werr := fn(f)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: writing %s: %v\n", path, werr)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cedarsim: wrote %s\n", path)
}

// recordable builds the document -record-scenario will write, before
// anything runs: a run that cannot be recorded (a custom machine, an
// option a scenario does not carry) or a path that already exists is a
// bad invocation, not a wasted simulation.
func recordable(path string, app perfect.App, cfg arch.Config, opts cedar.Options) *scenario.Scenario {
	if _, err := os.Stat(path); err == nil {
		usageErr("-record-scenario %s: file exists (a recording never overwrites)", path)
	}
	name := strings.TrimSuffix(filepath.Base(path), scenario.Ext)
	sc, err := scenario.ForRun(name, app, cfg, opts)
	if err != nil {
		usageErr("-record-scenario: %v", err)
	}
	return sc
}

// record writes the recording with the run's observed outcome as its
// expect: — deadlocks very much included: a schedule that wedges the
// machine is exactly what the corpus exists to pin.
func record(rec *scenario.Scenario, path string, runErr error) {
	rec.Expect = scenario.Outcome(runErr)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		_, err = f.Write(rec.Format())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: -record-scenario: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cedarsim: recorded %s (expect: %s)\n", path, rec.Expectation())
}

// printDegraded prints the fault activations of the degraded run and
// its overhead-decomposition delta table against the healthy run on
// the same machine, with base1p supplying the contention base.
func printDegraded(run *cedar.Run, runErr error, base1p, healthy *cedar.Run, plan faults.Plan) {
	cfg := run.Machine.Cfg
	fmt.Printf("%s on %s (%d CEs), fault plan %s\n\n", run.Result.App, cfg.Name, cfg.CEs(), plan)
	fmt.Println("Fault activations:")
	for _, a := range run.Injector.Applied() {
		fmt.Printf("  cycle %-12d %s\n", int64(a.At), a.Note)
	}
	fmt.Println()
	var rep *core.DegradedReport
	if runErr == nil {
		rep, runErr = core.CompareDegraded(base1p.Result, healthy.Result, run.Result, plan.String())
	}
	if runErr != nil {
		switch {
		case errors.Is(runErr, sim.ErrDeadlock):
			fmt.Fprintf(os.Stderr, "cedarsim: degraded run deadlocked: %v\n", runErr)
		case errors.Is(runErr, sim.ErrCycleBudget):
			fmt.Fprintf(os.Stderr, "cedarsim: degraded run exceeded cycle budget: %v\n", runErr)
		default:
			fmt.Fprintf(os.Stderr, "cedarsim: degraded run failed: %v\n", runErr)
		}
		os.Exit(1)
	}
	fmt.Print(core.FormatDegraded(rep))
}
