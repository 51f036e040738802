package cedar

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/perfect"
	"repro/internal/sim"
)

// A canceled context stops a running simulation promptly with an error
// matching both the sim and context sentinels, and a context canceled
// before the run refuses to start at all.
func TestSimulateRunCtxCancel(t *testing.T) {
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateRunCtx(pre, perfect.FLO52(), arch.Cedar8, Options{Steps: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// ~3 s of work uncanceled; the cancel must cut it short.
	run, err := SimulateRunCtx(ctx, perfect.ADM(), arch.Cedar32, Options{Steps: 500})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled and context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("canceled run took %v to return", elapsed)
	}
	// The partial run is still inspectable, like other abnormal ends.
	if run == nil || run.Result == nil {
		t.Fatal("canceled run did not return partial accounting")
	}
}

// A deadline context behaves the same way, matching DeadlineExceeded.
func TestSimulateRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := SimulateRunCtx(ctx, perfect.ADM(), arch.Cedar32, Options{Steps: 500})
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want sim.ErrCanceled and context.DeadlineExceeded", err)
	}
}

// An uncanceled context cannot perturb results: the ctx path is
// byte-identical to the plain path, per configuration, and fires the
// same events. The context can be canceled, so the run installs the
// interrupt check and yields at it; only Switches may differ, since a
// wake due at a check goes through the dispatch loop.
func TestSweepConfigsCtxIdentical(t *testing.T) {
	app := perfect.FLO52()
	opts := Options{Steps: 2}
	for _, cfg := range []arch.Config{arch.Cedar1, arch.Cedar4, arch.Cedar8} {
		plain := mustRun(t, app, cfg, opts)
		ctx, cancel := context.WithCancel(context.Background())
		viaCtx, err := SimulateRunCtx(ctx, app, cfg, opts)
		cancel()
		if err != nil {
			t.Fatalf("SimulateRunCtx: %v", err)
		}
		if a, b := plain.StatfxText(), viaCtx.StatfxText(); a != b {
			t.Fatalf("%s: ctx path diverged:\n%s\nvs\n%s", cfg.Name, a, b)
		}
		if a, b := plain.Machine.Kernel.EventsFired(), viaCtx.Machine.Kernel.EventsFired(); a != b {
			t.Fatalf("%s: EventsFired %d plain, %d through the ctx path", cfg.Name, a, b)
		}
	}
}
