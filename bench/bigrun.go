package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/perfect"
)

// bigrun simulates FLO52, weak-scaled to a 256-CE machine, once per
// operation.
type bigrun struct {
	e     *env
	app   perfect.App
	cfg   arch.Config
	opts  cedar.Options
	input string // the run's key in the expected-digest file
	want  string // the StatfxText digest every run must produce
	work  counts // one run's work; every run of the input is identical
}

func setupBigrun(e *env) (instance, error) {
	cfg, steps, input := arch.Scaled256, 0, "bigrun"
	if e.cfg.quick {
		cfg, steps, input = arch.Scaled64, 1, "bigrun-quick"
	}
	app, err := e.resolve("FLO52")
	if err != nil {
		return nil, err
	}
	b := &bigrun{e: e, app: app.Scaled(perfect.ScaleFactorFor(cfg.CEs())), cfg: cfg, input: input,
		opts: cedar.Options{Steps: steps, Seed: e.derivedSeed(input)}}
	// Seed 0 is the canonical input with a recorded digest; any other
	// seed is held out, and its runs must agree with each other.
	if e.cfg.seed == 0 && !e.cfg.updateExpected {
		want, err := loadExpected(e.expectedPath())
		if err != nil {
			return nil, err
		}
		if b.want = want[input]; b.want == "" {
			return nil, fmt.Errorf("%s: no digest for %s", e.expectedPath(), input)
		}
	}
	return b, nil
}

func (b *bigrun) measure(ctx context.Context, ph *phase) {
	sequential(b.e, ph, func(int) (time.Duration, int, error) {
		var run *cedar.Run
		var err error
		var d time.Duration
		var text string
		ph.tr.span("bigrun.op", 0, func(op int) {
			d = ph.tr.span("cedar.SimulateRunCtx", op, func(int) {
				run, err = cedar.SimulateRunCtx(ctx, b.app, b.cfg, b.opts)
			})
			if err == nil {
				ph.tr.span("statfx.Text", op, func(int) { text = run.StatfxText() })
			}
		})
		if err != nil {
			return d, 0, err
		}
		switch sum := digest(text); {
		case b.want == "":
			b.want = sum
		case sum != b.want:
			return d, 0, fmt.Errorf("statfx digest %s, want %s", sum, b.want)
		}
		b.work = countsOf(run)
		return d, 1, nil
	})
}

func (b *bigrun) finish(_ context.Context, phases []*phase) []counts {
	if b.e.cfg.updateExpected && b.e.cfg.seed == 0 && b.want != "" {
		if err := saveExpected(b.e.expectedPath(), b.input, b.want); err != nil {
			b.e.fail("update expected: %v", err)
		}
	}
	out := make([]counts, len(phases))
	for i, ph := range phases {
		out[i] = b.work.scaled(float64(len(ph.lat)))
	}
	return out
}

func (b *bigrun) report(metricSet, *phase, *phase) {}

func (b *bigrun) close() {}

// resolve reads an application from its committed workload document,
// as a user resolving a .workload file does.
func (e *env) resolve(name string) (perfect.App, error) {
	return (perfect.Resolver{AllowFiles: true}).Resolve(e.path("testdata/workloads/" + strings.ToLower(name) + perfect.WorkloadExt))
}

// expectedPath is the bigrun digest file.
func (e *env) expectedPath() string {
	if e.cfg.expected != "" {
		return e.cfg.expected
	}
	return e.path("bench/expected.json")
}

func loadExpected(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return want, nil
}

// saveExpected records one input's digest, keeping the others.
func saveExpected(path, input, sum string) error {
	want, err := loadExpected(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if want == nil {
		want = map[string]string{}
	}
	want[input] = sum
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
