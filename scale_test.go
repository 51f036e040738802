package cedar

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/perfect"
)

// TestScaledConfigsSimulate is the scaled-machine smoke test: every
// member of the scaled family — including the three-stage Deep64 —
// runs an application to completion, keeps every CE accounted for, and
// generates global memory traffic through the generalized network.
func TestScaledConfigsSimulate(t *testing.T) {
	for _, cfg := range arch.ScaledConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			res := Simulate(perfect.FLO52(), cfg, Options{Steps: 1})
			if res.CT <= 0 {
				t.Fatal("no completion time")
			}
			if len(res.Accounts) != cfg.CEs() {
				t.Fatalf("%d CE accounts, want %d", len(res.Accounts), cfg.CEs())
			}
			if res.GM.Accesses == 0 {
				t.Fatal("no global memory traffic")
			}
			if c := res.MachineConcurrency(); c <= 1 || c > float64(cfg.CEs()) {
				t.Fatalf("machine concurrency %v outside (1, %d]", c, cfg.CEs())
			}
		})
	}
}

// TestScaled1024Smoke is the thousand-processor gate: the Scaled1024
// member builds, a short run completes inside the CI time budget, and
// the conservation invariants hold — no CE accounts more time than the
// completion time, and the memory subsystem's contention accounting
// never goes negative (stall >= ideal, both nonnegative). It pins that
// the struct-of-arrays machine state and three-stage 32x32 routing
// stay consistent at a scale the golden tables do not cover.
func TestScaled1024Smoke(t *testing.T) {
	cfg := arch.Scaled1024
	res := Simulate(perfect.FLO52(), cfg, Options{Steps: 1})
	if res.CT <= 0 {
		t.Fatal("no completion time")
	}
	if len(res.Accounts) != 1024 {
		t.Fatalf("%d CE accounts, want 1024", len(res.Accounts))
	}
	for _, a := range res.Accounts {
		if a.Total() > res.CT {
			t.Fatalf("CE %d accounted %d cycles > CT %d", a.CE(), a.Total(), res.CT)
		}
	}
	if res.GM.Accesses == 0 {
		t.Fatal("no global memory traffic")
	}
	if res.GM.IdealTotal < 0 || res.GM.StallTotal < res.GM.IdealTotal {
		t.Fatalf("memory time not conserved: stall %d < ideal %d",
			res.GM.StallTotal, res.GM.IdealTotal)
	}
	if c := res.MachineConcurrency(); c <= 1 || c > float64(cfg.CEs()) {
		t.Fatalf("machine concurrency %v outside (1, %d]", c, cfg.CEs())
	}
}

// TestSweepConfigsContention sweeps a mini scaling study (1 -> 64
// CEs) and checks the Section-7 contention estimator works against the
// shared 1-processor base on a machine the paper never built.
func TestSweepConfigsContention(t *testing.T) {
	app := perfect.OCEAN()
	opts := Options{Steps: 2}
	base := Simulate(app, arch.Cedar1, opts)
	r64 := Simulate(app, arch.Scaled64, opts)
	if sp := r64.Speedup(base); sp <= 1 {
		t.Fatalf("64-CE speedup %v <= 1", sp)
	}
	cont, err := core.ContentionOverhead(base, r64)
	if err != nil {
		t.Fatal(err)
	}
	if cont.OvCont < 0 || cont.OvCont > 100 {
		t.Fatalf("Ov_cont %v%% outside [0, 100]", cont.OvCont)
	}
}

// TestWeakScalingGrowsWork checks the weak-scaling transform: the
// scaled problem carries factor times the parallel iterations and
// footprint, leaves serial sections alone, and still validates.
func TestWeakScalingGrowsWork(t *testing.T) {
	app := perfect.FLO52()
	scaled := app.Scaled(4)
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
	if scaled.Name != app.Name {
		t.Fatalf("scaling renamed the app to %q", scaled.Name)
	}
	if scaled.DataWords != 4*app.DataWords {
		t.Fatalf("footprint %d, want %d", scaled.DataWords, 4*app.DataWords)
	}
	if got, want := scaled.TotalIterations(), 4*app.TotalIterations(); got != want {
		t.Fatalf("iterations %d, want %d", got, want)
	}
	for i, p := range scaled.Phases {
		if p.Kind == perfect.PhaseSerial && p.Work != app.Phases[i].Work {
			t.Fatalf("serial phase %d work changed", i)
		}
	}
	// The original is untouched (value semantics).
	if app.TotalIterations() != perfect.FLO52().TotalIterations() {
		t.Fatal("Scaled mutated the receiver")
	}
	// Factors <= 1 are identity; 32 CEs and below never scale.
	if perfect.ScaleFactorFor(32) != 1 || perfect.ScaleFactorFor(256) != 8 {
		t.Fatalf("ScaleFactorFor wrong: %d, %d",
			perfect.ScaleFactorFor(32), perfect.ScaleFactorFor(256))
	}
}
