package cedar

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/sim"
)

func TestFaultCEFailCompletes(t *testing.T) {
	plan, err := faults.Parse("ce:3@1e5")
	if err != nil {
		t.Fatal(err)
	}
	run, err := SimulateRunErr(perfect.FLO52(), arch.Cedar8, Options{Steps: 1, Faults: plan})
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if run.Result.FailedCEs != 1 {
		t.Fatalf("FailedCEs = %d, want 1", run.Result.FailedCEs)
	}
	if run.Injector == nil || len(run.Injector.Applied()) != 1 {
		t.Fatal("injector did not record the activation")
	}
	healthy := mustRun(t, perfect.FLO52(), arch.Cedar8, Options{Steps: 1}).Result
	// A 7-CE machine past the fail point must not finish faster than
	// the healthy lower bound by more than contention relief plausibly
	// allows; mostly this guards against the run silently truncating.
	if run.Result.CT < healthy.CT/2 {
		t.Fatalf("degraded CT %d implausibly small vs healthy %d", run.Result.CT, healthy.CT)
	}
}

// TestFaultDeadlockNamesBlockedProcs: killing every CE of the main
// cluster mid-run orphans the helper clusters, which wait forever for
// work. The run must come back with ErrDeadlock naming the blocked
// processes — not hang, panic, or return a silently truncated result.
func TestFaultDeadlockNamesBlockedProcs(t *testing.T) {
	var plan faults.Plan
	for ce := 0; ce < arch.Cedar16.CEsPerCluster; ce++ {
		plan = append(plan, faults.Event{Kind: faults.CEFail, Target: ce, At: 50_000})
	}
	run, err := SimulateRunErr(perfect.FLO52(), arch.Cedar16, Options{Steps: 1, Faults: plan})
	if err == nil {
		t.Fatal("killing the whole main cluster did not error")
	}
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("error %v is not sim.ErrDeadlock", err)
	}
	var de *sim.DeadlockError
	if !errors.As(err, &de) || len(de.Blocked) == 0 {
		t.Fatalf("deadlock error carries no blocked processes: %v", err)
	}
	if !strings.Contains(err.Error(), "waits on") {
		t.Fatalf("diagnostic does not name what processes wait on: %v", err)
	}
	if run == nil || run.Result == nil {
		t.Fatal("no partial result returned alongside the deadlock")
	}
	if run.Result.FailedCEs != arch.Cedar16.CEsPerCluster {
		t.Fatalf("FailedCEs = %d, want %d", run.Result.FailedCEs, arch.Cedar16.CEsPerCluster)
	}
}

func TestFaultMaxCyclesBudget(t *testing.T) {
	run, err := SimulateRunErr(perfect.FLO52(), arch.Cedar8,
		Options{Steps: 1, MaxCycles: 10_000})
	if err == nil {
		t.Fatal("10k-cycle budget did not stop the run")
	}
	if !errors.Is(err, sim.ErrCycleBudget) {
		t.Fatalf("error %v is not sim.ErrCycleBudget", err)
	}
	if run == nil || run.Result == nil {
		t.Fatal("no partial result returned alongside the budget stop")
	}
}

func TestFaultInvalidPlanRejectedBeforeRun(t *testing.T) {
	plan := faults.Plan{{Kind: faults.CEFail, Target: 99, At: 1}}
	if _, err := SimulateRunErr(perfect.FLO52(), arch.Cedar8, Options{Steps: 1, Faults: plan}); err == nil {
		t.Fatal("out-of-range CE target accepted")
	}
}

// faultQuickSeed picks the randomized-sweep seed: CEDAR_FAULT_SEED
// pins it (the value a previous failure logged), otherwise the wall
// clock varies it so every CI run sweeps fresh schedules. The seed is
// always logged, so any failure is one env var away from a replay.
func faultQuickSeed(t *testing.T) int64 {
	t.Helper()
	if env := os.Getenv("CEDAR_FAULT_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("CEDAR_FAULT_SEED=%q: %v", env, err)
		}
		t.Logf("fault sweep seed pinned by CEDAR_FAULT_SEED: %d", seed)
		return seed
	}
	seed := time.Now().UnixNano()
	t.Logf("fault sweep seed %d (pin with CEDAR_FAULT_SEED=%d)", seed, seed)
	return seed
}

// TestQuickFaultConservation is the fault-plan conservation property:
// under any valid fault plan, every surviving CE's accounting
// categories still sum exactly to the completion time, a failed CE's
// sum never exceeds it, and the degraded report's (clamped) contention
// share is non-negative and finite. Each failing plan is reported with
// the cedarsim invocation that records it as a scenario document.
func TestQuickFaultConservation(t *testing.T) {
	app := perfect.FLO52()
	cfg := arch.Cedar8
	opts := Options{Steps: 1}
	seed := faultQuickSeed(t)
	base1p := mustRun(t, app, arch.Cedar1, opts).Result
	baseline := mustRun(t, app, cfg, opts).Result

	f := func(r uint64) bool {
		plan := randomPlan(r, cfg)
		if err := plan.Validate(cfg); err != nil {
			t.Errorf("generated plan %s invalid: %v", plan, err)
			return false
		}
		po := opts
		po.Faults = plan
		run, err := SimulateRunErr(app, cfg, po)
		if err != nil {
			// A deadlock here is a hand-off bug. Print the invocation
			// that records the schedule as a scenario document, ready
			// for testdata/faultcorpus — no reconstruction from the
			// quick-check log needed.
			t.Errorf("plan %s: run failed: %v\nrecord with: cedarsim -app %s -config %s -steps %d -fault %s -record-scenario new.scenario",
				plan, err, app.Name, cfg.Name, opts.Steps, plan)
			return false
		}
		res := run.Result
		for _, a := range res.Accounts {
			if failed := run.Machine.CE(a.CE()).Failed(); failed {
				if a.Total() > res.CT {
					t.Errorf("plan %s: failed CE %d accounted %d > CT %d",
						plan, a.CE(), a.Total(), res.CT)
					return false
				}
			} else if a.Total() != res.CT {
				t.Errorf("plan %s: surviving CE %d accounted %d != CT %d",
					plan, a.CE(), a.Total(), res.CT)
				return false
			}
		}
		rep, err := core.CompareDegraded(base1p, baseline, res, plan.String())
		if err != nil {
			t.Errorf("plan %s: compare failed: %v", plan, err)
			return false
		}
		for _, row := range rep.Rows {
			if math.IsNaN(row.Degraded) || math.IsInf(row.Degraded, 0) {
				t.Errorf("plan %s: row %q not finite: %v", plan, row.Name, row.Degraded)
				return false
			}
			if row.Name == "contention share" && row.Degraded < 0 {
				t.Errorf("plan %s: contention share %v < 0", plan, row.Degraded)
				return false
			}
		}
		return true
	}
	cfgq := &quick.Config{MaxCount: 16, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(f, cfgq); err != nil {
		t.Fatalf("%v (re-run with CEDAR_FAULT_SEED=%d)", err, seed)
	}
}

// randomPlan derives a valid fault plan from 64 random bits. CE 0 (the
// main task's lead) is never fail-stopped so the plan cannot deadlock
// the machine by design; every other fault kind is fair game.
func randomPlan(r uint64, cfg arch.Config) faults.Plan {
	ces := cfg.CEs()
	bits := func(n uint) uint64 {
		v := r & (1<<n - 1)
		r >>= n
		return v
	}
	var plan faults.Plan
	// Slow one CE by 1.25x..4x.
	plan = append(plan, faults.Event{
		Kind:   faults.CESlow,
		Target: int(bits(3)) % ces,
		At:     sim.Time(10_000 + bits(16)),
		Factor: 1.25 + float64(bits(2)),
	})
	// Maybe fail-stop a non-lead CE.
	if bits(1) == 1 && ces > 1 {
		plan = append(plan, faults.Event{
			Kind:   faults.CEFail,
			Target: 1 + int(bits(3))%(ces-1),
			At:     sim.Time(20_000 + bits(16)),
		})
	}
	// Degrade one memory module: offline or latency-inflated.
	mod := int(bits(5)) % cfg.GMModules
	if bits(1) == 1 {
		plan = append(plan, faults.Event{
			Kind: faults.ModuleOffline, Target: mod, At: sim.Time(5_000 + bits(15)),
		})
	} else {
		plan = append(plan, faults.Event{
			Kind: faults.ModuleSlow, Target: mod, At: sim.Time(5_000 + bits(15)),
			Factor: 2 + float64(bits(2)),
		})
	}
	// Maybe a kernel-lock stall or a page-fault storm.
	switch bits(2) {
	case 1:
		plan = append(plan, faults.Event{
			Kind: faults.LockStall, Target: -1,
			At: sim.Time(30_000 + bits(15)), Span: sim.Duration(1_000 + bits(13)),
		})
	case 2:
		plan = append(plan, faults.Event{
			Kind: faults.PageStorm, Target: int(bits(2)) % cfg.Clusters,
			At: sim.Time(30_000 + bits(15)),
		})
	}
	return plan
}

func mustPlan(t *testing.T, spec string) faults.Plan {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("bad plan %q: %v", spec, err)
	}
	return plan
}
