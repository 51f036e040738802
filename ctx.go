package cedar

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/perfect"
)

// interruptEvery is how many kernel events pass between context checks
// in a ctx-aware run. The kernel yields its thread at each check (see
// sim.Kernel.SetInterrupt), so this is also how long a run keeps other
// goroutines, such as a server's HTTP handlers, waiting on one P: a few
// microseconds, while a cancel lands at the very next check.
const interruptEvery = 64

// SimulateRunCtx is SimulateRunErr with cooperative cancellation: the
// kernel checks ctx between events (every interruptEvery dispatches), and
// a canceled or expired context stops the run with an error matching
// both sim.ErrCanceled and ctx.Err() (errors.Is). A context that never
// fires cannot perturb the simulation — the check runs between events,
// never inside one — so results remain byte-identical to
// SimulateRunErr's. This is the entry point long-running services use
// to enforce per-job deadlines on simulations that only know virtual
// time.
func SimulateRunCtx(ctx context.Context, app perfect.App, cfg arch.Config, opts Options) (*Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cedar: not starting %s on %s: %w", app.Name, cfg.Name, err)
	}
	opts.cancelFrom = ctx
	return SimulateRunErr(app, cfg, opts)
}
