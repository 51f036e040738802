package cedar

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/faults/replay"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/sim"
)

// RecordScenario captures the fault-run inputs as a replayable
// scenario: the app, configuration, timestep override, resolved kernel
// seed, and fault plan. The seed is resolved (never left implicit) so
// the recorded line keeps reproducing the run even if the default
// derivation changes. The scenario assumes default values for the
// options RecordScenario does not capture (chunking, tree barriers,
// cost overrides).
func RecordScenario(app perfect.App, cfg arch.Config, opts Options) replay.Scenario {
	return replay.Scenario{
		App:    app.Name,
		Config: cfg.Name,
		Steps:  opts.Steps,
		Seed:   opts.seed(app, cfg),
		Plan:   opts.Faults,
	}
}

// ReplayErr re-runs a recorded fault scenario. The simulation kernel
// is deterministic in virtual time, so a replay reproduces the
// original run bit for bit: same schedule, same fault hand-offs, same
// statfx accounting (see Run.StatfxText). Like SimulateRunErr it
// returns the Run alongside the error when the simulation itself ran
// but ended abnormally.
func ReplayErr(sc replay.Scenario) (*Run, error) {
	app, err := (perfect.Resolver{}).Resolve(sc.App)
	if err != nil {
		return nil, fmt.Errorf("cedar: replay: %w", err)
	}
	cfg, ok := arch.FamilyByName(sc.Config)
	if !ok {
		return nil, fmt.Errorf("cedar: replay: %w", arch.UnknownConfigError(sc.Config))
	}
	return SimulateRunErr(app, cfg, Options{Steps: sc.Steps, Seed: sc.Seed, Faults: sc.Plan})
}

// Outcome classifies a simulation error into the corpus expectation
// vocabulary: replay.ExpectOK, replay.ExpectDeadlock, or
// replay.ExpectError.
func Outcome(err error) string {
	switch {
	case err == nil:
		return replay.ExpectOK
	case errors.Is(err, sim.ErrDeadlock):
		return replay.ExpectDeadlock
	default:
		return replay.ExpectError
	}
}

// CheckScenario replays a scenario and verifies its declared
// expectation, returning the Run and a descriptive error when the
// outcome differs (the error includes the simulation error, if any,
// and the ready-to-paste scenario line).
func CheckScenario(sc replay.Scenario) (*Run, error) {
	run, err := ReplayErr(sc)
	if got, want := Outcome(err), sc.Expectation(); got != want {
		detail := ""
		if err != nil {
			detail = fmt.Sprintf(" (%v)", err)
		}
		return run, fmt.Errorf("cedar: scenario %q: outcome %s, want %s%s", sc, got, want, detail)
	}
	return run, nil
}

// CorpusResult is one corpus entry's verification outcome from
// CheckCorpus. Err is set when the entry misbehaved — the outcome
// missed its declared expectation, or two replays were not
// bit-identical. Run carries the first replay for inspection.
type CorpusResult struct {
	Entry replay.CorpusEntry
	Run   *Run
	Err   error
}

// CheckCorpus verifies every corpus entry through the engine pool:
// each scenario is replayed twice, its outcome checked against the
// declared expectation, and the two runs compared byte for byte (the
// record/replay contract). Entries are independent simulations, so
// they run concurrently per parallel (see engine.Workers); results
// come back in corpus order, making concurrent gate output identical
// to the sequential path's.
func CheckCorpus(entries []replay.CorpusEntry, parallel int) []CorpusResult {
	return engine.Map(parallel, entries, func(_ int, e replay.CorpusEntry) CorpusResult {
		cr := CorpusResult{Entry: e}
		run, err := CheckScenario(e.Scenario)
		cr.Run = run
		if err != nil {
			cr.Err = err
			return cr
		}
		if run != nil {
			again, err := ReplayErr(e.Scenario)
			if Outcome(err) != e.Scenario.Expectation() || again == nil ||
				again.StatfxText() != run.StatfxText() {
				cr.Err = fmt.Errorf("cedar: replay not bit-identical across two runs: %s", e.Scenario)
			}
		}
		return cr
	})
}

// FaultWindows runs the app healthy on the configuration with the
// cedarhpm monitor armed and returns the merged virtual-time windows
// in which page faults were serviced. The schedule fuzzer
// (replay.SweepTimes) aims fail-stops at these windows — the hand-off
// races live inside them.
func FaultWindows(app perfect.App, cfg arch.Config, opts Options) ([]replay.Window, error) {
	opts.Faults = nil
	if opts.TraceCapacity <= 0 {
		opts.TraceCapacity = faultWindowTrace
	}
	run, err := SimulateRunErr(app, cfg, opts)
	if err != nil {
		return nil, err
	}
	if n := run.Monitor.Dropped(); n > 0 {
		return nil, fmt.Errorf("cedar: fault windows: %d trace records dropped; raise Options.TraceCapacity", n)
	}
	spans, _ := obs.FoldTrace(run.Monitor.Trace(), nil)
	var ws []replay.Window
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "pgflt") {
			ws = append(ws, replay.Window{Start: sp.Start, End: sp.End})
		}
	}
	return replay.MergeWindows(ws), nil
}

// faultWindowTrace is FaultWindows' trace capacity when the options
// leave it unset.
const faultWindowTrace = 1 << 22

// ShrinkErr minimizes a failing scenario with the delta-debugging
// shrinker: the result reproduces the same outcome class (deadlock, or
// any error) with the fewest, plainest fault injections. It returns
// the shrunk scenario and the number of candidate replays spent.
// Shrinking a scenario that completes cleanly is an error — there is
// nothing to reproduce.
func ShrinkErr(sc replay.Scenario, maxRuns int) (replay.Scenario, int, error) {
	_, err := ReplayErr(sc)
	class := Outcome(err)
	if class == replay.ExpectOK {
		return sc, 1, fmt.Errorf("cedar: scenario %q completes cleanly; nothing to shrink", sc)
	}
	failing := func(cand replay.Scenario) bool {
		if err := cand.Plan.Validate(mustConfig(cand.Config)); err != nil {
			return false
		}
		_, err := ReplayErr(cand)
		return Outcome(err) == class
	}
	shrunk, runs := replay.Shrink(sc, failing, maxRuns)
	shrunk.Expect = class
	return shrunk, runs + 1, nil
}

func mustConfig(name string) arch.Config {
	cfg, ok := arch.FamilyByName(name)
	if !ok {
		panic(arch.UnknownConfigError(name))
	}
	return cfg
}

// StatfxText renders the run's complete accounting — completion time,
// exact and sampled concurrency, fault classification counters, the
// Table-2 OS breakdown, and every CE's per-category account — as a
// canonical text block. Two replays of the same scenario produce
// byte-identical StatfxText; the replay regression suite and cedarfuzz
// compare runs with it.
//
// The block renders from the run's metric registry snapshot — the same
// source every exporter reads — and is byte-identical to the original
// direct rendering (golden-gated in testdata/golden/statfx_*.txt):
// cycle counts round-trip the registry's float64 cells exactly below
// 2^53, and float values are stored and read back bit-for-bit.
func (r *Run) StatfxText() string {
	res := r.Result
	snap := r.Metrics().Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "app=%s config=%s ct=%d failed_ces=%d\n", res.App, res.Cfg.Name,
		int64(snap.Value("ct_cycles")), int64(snap.Value("result_failed_ces")))
	fmt.Fprintf(&b, "faults seq=%d conc=%d\n",
		int64(snap.Value("faults_sequential_total")), int64(snap.Value("faults_concurrent_total")))
	fmt.Fprintf(&b, "concurrency sampled=%.9f", snap.Value("concurrency_sampled"))
	cc, _ := snap.Get("concurrency_cluster")
	for _, cell := range cc.Cells {
		fmt.Fprintf(&b, " c%d=%.9f", cell.Key[0], cell.Value)
	}
	b.WriteString("\n")
	ot, _ := snap.Get("os_time_cycles")
	oc, _ := snap.Get("os_events_total")
	for i := range ot.Cells {
		fmt.Fprintf(&b, "os %-14s time=%d count=%d\n",
			ot.Cells[i].Label[0], int64(ot.Cells[i].Value), int64(oc.Cells[i].Value))
	}
	bc, _ := snap.Get("ce_category_cycles")
	for i := 0; i < len(bc.Cells); {
		ce := bc.Cells[i].Key[0]
		fmt.Fprintf(&b, "ce%d", ce)
		for ; i < len(bc.Cells) && bc.Cells[i].Key[0] == ce; i++ {
			fmt.Fprintf(&b, " %s=%d", bc.Cells[i].Label[1], int64(bc.Cells[i].Value))
		}
		b.WriteString("\n")
	}
	return b.String()
}
