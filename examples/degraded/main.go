// Degraded-mode simulation: FLO52 on the 4-cluster/32-processor Cedar
// losing one CE per cluster mid-run, compared against the healthy
// machine with the paper's overhead decomposition. The failed CEs are
// the last of each cluster (never a cluster lead, so every cluster
// task keeps running); each cluster's CDOALLs then self-schedule over
// seven CEs instead of eight.
//
//	go run ./examples/degraded
package main

import (
	"errors"
	"fmt"
	"os"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/perfect"
)

func main() {
	app := perfect.FLO52()
	cfg := arch.Cedar32

	// One fail-stop per cluster at 1M cycles (50 ms of virtual time):
	// the last CE of each cluster, machine-wide ids 7, 15, 23, 31.
	var plan faults.Plan
	for c := 0; c < cfg.Clusters; c++ {
		plan = append(plan, faults.Event{
			Kind:   faults.CEFail,
			Target: c*cfg.CEsPerCluster + cfg.CEsPerCluster - 1,
			At:     1_000_000,
		})
	}

	// The degraded run and its two healthy references — the same
	// machine, and the 1-processor run that supplies the contention
	// base — are independent simulations; run them through the engine.
	var degraded, healthy, base1p *cedar.Run
	var runErr, healthyErr, base1pErr error
	engine.Do(0,
		func() { degraded, runErr = cedar.SimulateRunErr(app, cfg, cedar.Options{Faults: plan}) },
		func() { healthy, healthyErr = cedar.SimulateRunErr(app, cfg, cedar.Options{}) },
		func() { base1p, base1pErr = cedar.SimulateRunErr(app, arch.Cedar1, cedar.Options{}) },
	)
	if err := errors.Join(healthyErr, base1pErr); err != nil {
		fmt.Fprintln(os.Stderr, "degraded: baseline run failed:", err)
		os.Exit(1)
	}

	fmt.Println("Fault activations:")
	for _, a := range degraded.Injector.Applied() {
		fmt.Printf("  cycle %-10d %s\n", int64(a.At), a.Note)
	}
	fmt.Println()

	var rep *core.DegradedReport
	if runErr == nil {
		rep, runErr = core.CompareDegraded(base1p.Result, healthy.Result, degraded.Result, plan.String())
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "degraded: run failed:", runErr)
		os.Exit(1)
	}
	fmt.Print(core.FormatDegraded(rep))
}
