// Command cedarbenchdiff gates benchmark regressions against committed
// baselines. It parses `go test -json` benchmark logs — one or more
// baselines (committed at the repo root) and a fresh run — converts
// each benchmark's ns/op into events per second, and fails when a
// benchmark got slower than its baseline by more than the tolerance:
//
//	cedarbenchdiff -old BENCH_kernel.json -old BENCH_bigconfig.json \
//	    -new bench_new.json [-tol 0.5]
//
// -old repeats (or takes a comma-separated list), so CI gates the
// kernel micro-benchmarks and the big-configuration run in one
// invocation. A benchmark name appearing in two baselines is an error:
// it would be ambiguous which number gates.
//
// Results are keyed on the event's Test field (which carries no
// -GOMAXPROCS suffix), so a baseline recorded on an 8-core machine
// still gates a 4-core CI runner. The default tolerance is
// deliberately loose (50%): across
// machine generations only order-of-magnitude regressions — an
// accidentally quadratic queue, a lost zero-allocation property — are
// unambiguous, and those are exactly what the gate is for. In this
// plain tolerance mode, benchmarks present only in the baseline are
// reported but not fatal (a renamed benchmark should update the
// baseline); a new run with no common benchmarks fails, since that
// means the gate matched nothing.
//
// -min-speedup inverts the gate for opt-in speedup checks: when set
// above zero, every common benchmark must beat its baseline events/sec
// by at least that factor (e.g. -min-speedup 1.3 demands the fresh run
// is 1.3x the baseline). This is how the CEDAR_SPEEDUP_GATE CI step
// proves an optimization PR actually outruns the pre-refactor capture.
// Under -min-speedup a benchmark present in a baseline but missing
// from -new IS fatal (listed as MISSING): the mode exists to prove a
// property of specific benchmarks, and a gate whose subject silently
// vanished from the fresh log would pass vacuously, proving nothing.
//
// The comparison semantics live in internal/benchcmp, shared with the
// scenario-capture diff (scenario.Diff).
//
// Exit status: 0 when every gated benchmark passes, 1 on regression,
// missed speedup, missing-under-min-speedup, or empty intersection,
// 2 on bad invocation.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchcmp"
)

func main() {
	var oldPaths benchcmp.PathList
	flag.Var(&oldPaths, "old", "baseline go test -json benchmark log (repeatable, or comma-separated; default BENCH_kernel.json)")
	newPath := flag.String("new", "", "fresh go test -json benchmark log to gate")
	tol := flag.Float64("tol", 0.5, "allowed slowdown fraction before failing (0.5 = new may be half the baseline's events/sec)")
	minSpeedup := flag.Float64("min-speedup", 0, "when > 0, require every common benchmark's new/old events/sec ratio to reach this factor (a gated benchmark missing from -new is then fatal)")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "cedarbenchdiff: -new is required")
		flag.Usage()
		os.Exit(2)
	}
	if *tol < 0 || *tol >= 1 {
		fmt.Fprintf(os.Stderr, "cedarbenchdiff: -tol %v out of range [0,1)\n", *tol)
		os.Exit(2)
	}
	if *minSpeedup < 0 {
		fmt.Fprintf(os.Stderr, "cedarbenchdiff: -min-speedup %v must be >= 0\n", *minSpeedup)
		os.Exit(2)
	}
	if len(oldPaths) == 0 {
		oldPaths = benchcmp.PathList{"BENCH_kernel.json"}
	}

	oldNS, err := benchcmp.LoadBaselines(oldPaths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarbenchdiff: %v\n", err)
		os.Exit(2)
	}
	newNS, err := benchcmp.LoadNsOp(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarbenchdiff: %v\n", err)
		os.Exit(2)
	}

	spec := benchcmp.Spec{Tol: *tol, MinSpeedup: *minSpeedup}
	rep := benchcmp.Compare(
		benchcmp.EventsPerSec(oldNS), benchcmp.EventsPerSec(newNS),
		func(string) benchcmp.Spec { return spec },
		*minSpeedup > 0)
	rep.WriteTable(os.Stdout, "old ev/s", "new ev/s")

	if err := rep.Err(); err != nil {
		if *minSpeedup > 0 {
			fmt.Fprintf(os.Stderr, "cedarbenchdiff: %v (tolerance %.0f%%, min speedup %.2fx)\n",
				err, *tol*100, *minSpeedup)
		} else {
			fmt.Fprintf(os.Stderr, "cedarbenchdiff: %v (tolerance %.0f%%)\n", err, *tol*100)
		}
		os.Exit(1)
	}
	if *minSpeedup > 0 {
		fmt.Printf("all %d common benchmark(s) within %.0f%% of baseline and at least %.2fx faster\n",
			rep.Common, *tol*100, *minSpeedup)
	} else {
		fmt.Printf("all %d common benchmark(s) within %.0f%% of baseline\n", rep.Common, *tol*100)
	}
}
