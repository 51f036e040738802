package cedar

// Cross-module integration tests: invariants that tie the hardware,
// OS, runtime, monitors, and analysis together. These are the checks
// that keep the reproduction honest — the same quantity measured two
// independent ways must agree.

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/hpm"
	"repro/internal/metrics"
	"repro/internal/perfect"
	"repro/internal/sim"
)

// TestTraceAgreesWithAccounts derives the main task's barrier wait and
// the helper tasks' wait-for-work time from the cedarhpm event trace
// (the paper's method) and compares against the time accounts (the
// model's ground truth). They must match exactly: the trace brackets
// the same virtual-time intervals the accounts charge.
func TestTraceAgreesWithAccounts(t *testing.T) {
	run := mustRun(t, perfect.FLO52(), arch.Cedar32, Options{
		Steps:         2,
		TraceCapacity: 1 << 22,
	})
	if run.Monitor.Dropped() > 0 {
		t.Fatalf("trace buffer overflowed (%d dropped); grow TraceCapacity", run.Monitor.Dropped())
	}
	trace := run.Monitor.Trace()
	res := run.Result

	barrier := hpm.PairDurations(trace, hpm.EvBarrierEnter, hpm.EvBarrierExit)
	mainLead := 0
	acct := res.Accounts[mainLead].Get(metrics.CatBarrierWait)
	// The trace interval includes the final barrier-count read (a GM
	// access charged to barrier wait too), so trace >= account is the
	// exact relation; they must agree within that access's latency per
	// barrier.
	slack := sim.Duration(run.RT.Statistics().Barriers) * 200
	if d := barrier[mainLead] - acct; d < 0 || d > slack {
		t.Errorf("main barrier wait: trace %d vs account %d (slack %d)",
			barrier[mainLead], acct, slack)
	}

	wait := hpm.PairDurations(trace, hpm.EvWaitStart, hpm.EvWaitEnd)
	for c := 1; c < 4; c++ {
		lead := c * 8
		acct := res.Accounts[lead].Get(metrics.CatHelperWait)
		got := wait[lead]
		// Wait intervals bracket the cond wait exactly; the final wait
		// (shutdown) has a start with no end, which PairDurations
		// drops, so trace <= account.
		if got > acct {
			t.Errorf("helper %d wait: trace %d > account %d", c, got, acct)
		}
		if acct > 0 && float64(got) < 0.8*float64(acct) {
			t.Errorf("helper %d wait: trace %d is < 80%% of account %d", c, got, acct)
		}
	}
}

// TestIterationEventsMatchWorkload counts iteration start/end events
// in the trace against the workload's arithmetic.
func TestIterationEventsMatchWorkload(t *testing.T) {
	app := perfect.ADM().WithSteps(1)
	run := mustRun(t, app, arch.Cedar16, Options{
		Steps:         1,
		TraceCapacity: 1 << 20,
	})
	want := uint64(app.TotalIterations())
	if got := run.Monitor.Count(hpm.EvIterStart); got != want {
		t.Fatalf("iter-start events = %d, want %d", got, want)
	}
	if got := run.Monitor.Count(hpm.EvIterEnd); got != want {
		t.Fatalf("iter-end events = %d, want %d", got, want)
	}
	// One loop post per parallel loop, one join per helper per loop.
	loops := run.RT.Statistics().SdoallLoops + run.RT.Statistics().XdoallLoops
	if got := run.Monitor.Count(hpm.EvLoopPost); got != loops {
		t.Fatalf("loop posts = %d, want %d", got, loops)
	}
	if got := run.Monitor.Count(hpm.EvHelperJoin); got != loops*1 {
		t.Fatalf("helper joins = %d, want %d (1 helper cluster)", got, loops)
	}
}

// TestSampledVsExactConcurrency compares the statfx sampler (periodic
// observation of what each CE is doing) with the account integral.
// The sampler cannot see blocked-but-charged spinning (helper waits
// are charged after the fact), so sampled <= exact, but active
// compute-heavy runs must agree reasonably.
func TestSampledVsExactConcurrency(t *testing.T) {
	r := Simulate(perfect.MDG(), arch.Cedar32, Options{Steps: 2, SamplerInterval: 2000})
	exact := r.MachineConcurrency()
	sampled := r.SampledConcurrency
	if sampled <= 0 {
		t.Fatal("sampler recorded nothing")
	}
	if sampled > exact*1.05 {
		t.Fatalf("sampled %.2f exceeds exact %.2f", sampled, exact)
	}
	if sampled < exact*0.5 {
		t.Fatalf("sampled %.2f under half of exact %.2f", sampled, exact)
	}
}

// TestEquationConsistency verifies the Table-3 equation holds exactly
// on real runs: plugging the computed par_concurr back through
// (1-pf) + pf*pc reproduces the measured average concurrency
// (when the value was not clamped).
func TestEquationConsistency(t *testing.T) {
	r := Simulate(perfect.ARC2D(), arch.Cedar32, Options{Steps: 2})
	pcs := r.ParallelLoopConcurrency()
	for c, pc := range pcs {
		if pc <= 1 || pc >= float64(r.Cfg.CEsPerCluster) {
			continue // clamped: equation intentionally not invertible
		}
		pf := r.ParallelFraction(c)
		back := (1 - pf) + pf*pc
		if math.Abs(back-r.Concurrency[c]) > 1e-6 {
			t.Errorf("cluster %d: equation does not invert: %.6f vs %.6f",
				c, back, r.Concurrency[c])
		}
	}
}

// TestGlobalMemoryTrafficAccounting cross-checks the memory's word
// counter against the workload arithmetic (every Global reference in
// loop bodies, serial sections, runtime control words, and fault-free
// demand loads funnels through gmem.Access).
func TestGlobalMemoryTrafficAccounting(t *testing.T) {
	// A single pure loop with known traffic.
	app := perfect.SyntheticSpec{
		Name: "traffic", Steps: 1, LoopsPerStep: 1,
		Outer: 2, Inner: 16, Work: 500, GMWords: 64,
	}.App()
	run := mustRun(t, app, arch.Cedar8, Options{})
	// Body traffic: 32 iterations x 64 words.
	body := uint64(32 * 64)
	total := run.Result.GM.Words
	if total < body {
		t.Fatalf("GM words %d below body traffic %d", total, body)
	}
	// Control-word traffic (posts, picks, barrier reads) is small
	// relative to the body.
	if total > body*2 {
		t.Fatalf("GM words %d more than double the body traffic %d", total, body)
	}
}

// TestFaultCountsScaleWithClusters verifies the per-cluster-task page
// mapping semantics end to end: the same app on 4 clusters services
// roughly 4x the faults of the 1-cluster run.
func TestFaultCountsScaleWithClusters(t *testing.T) {
	count := func(cfg arch.Config) uint64 {
		run := mustRun(t, perfect.OCEAN(), cfg, Options{Steps: 2})
		return run.OS.SeqFaults() + run.OS.ConcFaults()
	}
	f1 := count(arch.Cedar8)  // one cluster
	f4 := count(arch.Cedar32) // four clusters
	if f4 < f1*2 || f4 > f1*8 {
		t.Fatalf("faults did not scale with clusters: 1-cluster %d, 4-cluster %d", f1, f4)
	}
}

// TestOSBreakdownMatchesAccounts: the Table-2 totals and the per-CE
// account categories describe the same time (OS breakdown covers
// system + interrupt charges; kernel lock spin is accounted only on
// the CEs).
func TestOSBreakdownMatchesAccounts(t *testing.T) {
	run := mustRun(t, perfect.FLO52(), arch.Cedar16, Options{Steps: 2})
	res := run.Result
	var acct sim.Duration
	for _, a := range res.Accounts {
		acct += a.Get(metrics.CatOSSystem) + a.Get(metrics.CatOSInterrupt)
	}
	brk := res.OS.Total()
	// The breakdown includes the cond-wait portion of concurrent
	// faults, which the accounts charge as system time too, so the two
	// agree within the joiner waits; assert a tight band.
	lo, hi := float64(brk)*0.8, float64(brk)*1.25
	if f := float64(acct); f < lo || f > hi {
		t.Fatalf("account OS time %d vs breakdown total %d (band %.0f..%.0f)",
			acct, brk, lo, hi)
	}
}

// TestScaledStepsPreserveOverheadShares: overhead fractions are
// approximately step-count invariant (the property the calibration
// scaling relies on).
func TestScaledStepsPreserveOverheadShares(t *testing.T) {
	a := Simulate(perfect.MDG(), arch.Cedar32, Options{Steps: 4})
	b := Simulate(perfect.MDG(), arch.Cedar32, Options{Steps: 8})
	ovA := a.Task(0).OverheadFraction()
	ovB := b.Task(0).OverheadFraction()
	if math.Abs(ovA-ovB) > 0.05 {
		t.Fatalf("overhead share not step-invariant: %.3f (4 steps) vs %.3f (8 steps)", ovA, ovB)
	}
	osA, osB := a.OSShare(), b.OSShare()
	if math.Abs(osA-osB) > 0.05 {
		t.Fatalf("OS share not step-invariant: %.3f vs %.3f", osA, osB)
	}
}

// TestNoIdleMainLead: the main task's lead CE is never idle — it is
// always executing, stalling, spinning, or in the OS. (Its account
// must cover the whole completion time.)
func TestNoIdleMainLead(t *testing.T) {
	r := Simulate(perfect.ADM(), arch.Cedar16, Options{Steps: 1})
	lead := r.Accounts[0]
	covered := lead.Total()
	if float64(covered) < 0.99*float64(r.CT) {
		t.Fatalf("main lead accounts for %d of CT %d", covered, r.CT)
	}
	if lead.Get(metrics.CatIdle) != 0 {
		t.Fatalf("main lead charged idle time: %d", lead.Get(metrics.CatIdle))
	}
}
