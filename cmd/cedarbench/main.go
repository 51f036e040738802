// Command cedarbench runs the declarative scenario suite and gates it
// against the committed historical capture.
//
// A scenario directory (testdata/scenarios/ in this repo) holds one
// .scenario file per experiment — app, machine configuration, weak
// scale, fault plan, seed, cycle budget, and the metrics to extract
// (see internal/scenario for the format). cedarbench executes every
// scenario through the simulation facade's worker pool, writes the
// canonical BENCH_scenarios.json capture, and — when -old names the
// committed previous capture — diffs the fresh records against it with
// per-metric gates: deterministic model outputs (completion time, the
// Table-2 overhead decomposition, kernel event counts) must match
// exactly, wall-clock throughput within its tolerance.
//
//	cedarbench -dir testdata/scenarios -old BENCH_scenarios.json
//
// reads the baseline first and then overwrites it with the fresh
// capture (the CI scenarios job uploads that file as an artifact), so
// updating the committed baseline after an intentional model change is
// just committing the rewritten file. -out redirects the fresh capture
// elsewhere; -out ” skips writing.
//
// -run restricts the suite to matching scenario names. A subset run
// gates against the baseline's matching records only, and writes no
// capture unless -out is given explicitly — a partial capture must
// never silently replace the committed full baseline.
//
// Because the default metric set is fully deterministic, running the
// suite twice from the same tree produces byte-identical captures —
// the property the gate's exact mode relies on. -wallclock adds the
// nondeterministic events/sec measurement for local trend-watching;
// never commit a capture produced with it.
//
// Exit status: 0 when every gated record passes, 1 on any gate miss
// (drifted exact value, throughput regression, record missing from the
// fresh run, empty intersection), 2 on bad invocation or a scenario
// that fails to parse or run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"

	"repro/internal/cli"
	"repro/internal/scenario"
)

func main() {
	dir := flag.String("dir", "testdata/scenarios", "scenario directory (*.scenario files)")
	out := flag.String("out", "BENCH_scenarios.json", "write the fresh capture here ('' = don't write)")
	oldPath := flag.String("old", "", "baseline capture to gate against ('' = run without gating)")
	parallel := cli.ParallelFlag(flag.CommandLine, "scenario worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	wallclock := flag.Bool("wallclock", false, "also record wall-clock events/sec (nondeterministic; never commit such a capture)")
	run := flag.String("run", "", "only run scenarios whose name matches this regexp")
	list := flag.Bool("list", false, "list the scenarios and their metric sets, run nothing")
	flag.Parse()
	outSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	if *run != "" && !outSet {
		// A subset capture silently replacing the committed full
		// baseline is a footgun; write one only on an explicit -out.
		*out = ""
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cedarbench: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	scs, err := scenario.LoadDir(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarbench: %v\n", err)
		os.Exit(2)
	}
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedarbench: -run: %v\n", err)
			os.Exit(2)
		}
		kept := scs[:0]
		for _, sc := range scs {
			if re.MatchString(sc.Name) {
				kept = append(kept, sc)
			}
		}
		scs = kept
		if len(scs) == 0 {
			fmt.Fprintf(os.Stderr, "cedarbench: -run %q matches no scenario\n", *run)
			os.Exit(2)
		}
	}
	if *list {
		for _, sc := range scs {
			plan := sc.Plan.String()
			if plan == "" {
				plan = "-"
			}
			fmt.Printf("%-32s app=%s config=%s scale=%d steps=%d plan=%s\n",
				sc.Name, sc.AppName(), sc.Config, sc.ScaleFactor(), sc.Steps, plan)
		}
		return
	}

	// Read the baseline before writing anything: -old and -out may be
	// the same committed file.
	var oldRecs []scenario.Record
	if *oldPath != "" {
		oldRecs, err = scenario.LoadCapture(*oldPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedarbench: %v\n", err)
			os.Exit(2)
		}
		if *run != "" {
			// Gate a subset run against the baseline's matching slice
			// only — the unselected scenarios didn't run, so their
			// records are absent by construction, not regressions.
			selected := map[string]bool{}
			for _, sc := range scs {
				selected[sc.Name] = true
			}
			kept := oldRecs[:0]
			for _, r := range oldRecs {
				if selected[r.Scenario] {
					kept = append(kept, r)
				}
			}
			oldRecs = kept
		}
	}

	recs, err := scenario.RunAll(context.Background(), scs, *parallel, *wallclock)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("ran %d scenario(s), %d record(s)\n", len(scs), len(recs))

	if *out != "" {
		if err := scenario.WriteCaptureFile(*out, recs); err != nil {
			fmt.Fprintf(os.Stderr, "cedarbench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *oldPath != "" {
		rep, err := scenario.Diff(oldRecs, recs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedarbench: %v\n", err)
			os.Exit(2)
		}
		rep.WriteTable(os.Stdout, "old", "new")
		if err := rep.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "cedarbench: %v against %s\n", err, *oldPath)
			os.Exit(1)
		}
		fmt.Printf("all %d gated record(s) match %s\n", rep.Common, *oldPath)
	}
}
