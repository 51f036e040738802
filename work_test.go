package cedar

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/perfect"
)

// TestSimulatedWorkCounts pins how much kernel work two paper runs
// take. EventsFired counts every event the simulation dispatches,
// whether it resumes a process or runs a callback, so a change that
// only speeds the kernel up must leave it alone. Switches counts the
// coroutine resumes: loop bodies run as callback chains
// (cfrt.ExecCtx), so a body parks its process once rather than once per
// step. A change that alters the simulated work, or quietly stops
// chaining loop bodies, fails here with both numbers. wantSwitches is
// the committed value; beforeChains is the value when every body step
// was its own process wake, kept for the message. Neither run installs
// an interrupt check, so no wake goes through the dispatch loop just to
// meet one (see sim.Kernel.SetInterrupt).
func TestSimulatedWorkCounts(t *testing.T) {
	for _, c := range []struct {
		app                      string
		cfg                      arch.Config
		steps                    int
		wantEvents, wantSwitches uint64
		beforeChains             uint64
	}{
		{"FLO52", arch.Cedar8, 1, 9_818, 4_301, 8_012},
		{"MDG", arch.Cedar32, 0, 278_035, 114_629, 245_937},
	} {
		app, ok := perfect.ByName(c.app)
		if !ok {
			t.Fatalf("no app %s", c.app)
		}
		run, err := SimulateRunErr(app, c.cfg, Options{Steps: c.steps})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.app, c.cfg.Name, err)
		}
		k := run.Machine.Kernel
		if got := k.EventsFired(); got != c.wantEvents {
			t.Errorf("%s/%s: EventsFired = %d, want %d: the simulated work changed", c.app, c.cfg.Name, got, c.wantEvents)
		}
		if got := k.Switches(); got != c.wantSwitches {
			t.Errorf("%s/%s: Switches = %d, want %d (%d with one process wake per body step)",
				c.app, c.cfg.Name, got, c.wantSwitches, c.beforeChains)
		}
	}
}
