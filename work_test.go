package cedar

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/perfect"
)

// TestSimulatedWorkCounts pins how much kernel work four paper runs
// take. EventsFired counts every event the simulation dispatches,
// whether it resumes a process or runs a callback, so a change that
// only speeds the kernel up must leave it alone. Switches counts the
// coroutine resumes: each CE's share of a cluster job runs as one
// callback chain (cfrt.ExecCtx), pickups, loop bodies and the
// end-of-job sync included, so the process is resumed only where it
// must block or is needed. A change that alters the simulated work, or
// quietly stops chaining, fails here with both numbers. wantSwitches
// is the committed value; beforeJobChains is the value when only loop
// bodies were chained, and every pickup, sync and faulting Global's
// access was a process wake, kept for the message. OCEAN's CDOACROSS body stays on its process
// and its XDOALL is chained. The last run is the benchmark's bigrun
// input (FLO52 weak-scaled to 256 CEs). No run installs an interrupt
// check, so no wake goes through the dispatch loop just to meet one
// (see sim.Kernel.SetInterrupt).
func TestSimulatedWorkCounts(t *testing.T) {
	for _, c := range []struct {
		app                      perfect.App
		cfg                      arch.Config
		steps                    int
		long                     bool // skipped under -short
		wantEvents, wantSwitches uint64
		beforeJobChains          uint64
	}{
		{perfect.FLO52(), arch.Cedar8, 1, false, 9_818, 2_568, 4_301},
		{perfect.MDG(), arch.Cedar32, 0, false, 278_035, 45_376, 114_629},
		{perfect.OCEAN(), arch.Cedar8, 1, false, 8_132, 1_771, 3_473},
		{perfect.FLO52().Scaled(perfect.ScaleFactorFor(arch.Scaled256.CEs())), arch.Scaled256, 0, true,
			811_025, 397_438, 609_739},
	} {
		name := c.app.Name + "/" + c.cfg.Name
		if c.long && testing.Short() {
			t.Logf("%s: skipped under -short", name)
			continue
		}
		run, err := SimulateRunErr(c.app, c.cfg, Options{Steps: c.steps})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k := run.Machine.Kernel
		if got := k.EventsFired(); got != c.wantEvents {
			t.Errorf("%s: EventsFired = %d, want %d: the simulated work changed", name, got, c.wantEvents)
		}
		if got := k.Switches(); got != c.wantSwitches {
			t.Errorf("%s: Switches = %d, want %d (%d with a process wake per pickup and sync)",
				name, got, c.wantSwitches, c.beforeJobChains)
		}
	}
}
