package cedar

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfect"
)

// mustRun is SimulateRunErr for tests and benchmarks that treat any
// simulation error as fatal.
func mustRun(tb testing.TB, app perfect.App, cfg arch.Config, opts Options) *Run {
	tb.Helper()
	run, err := SimulateRunErr(app, cfg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

func TestSimulateDeterministic(t *testing.T) {
	opts := Options{Steps: 2}
	a := Simulate(perfect.FLO52(), arch.Cedar16, opts)
	b := Simulate(perfect.FLO52(), arch.Cedar16, opts)
	if a.CT != b.CT {
		t.Fatalf("CTs differ: %d vs %d", a.CT, b.CT)
	}
	if a.MachineConcurrency() != b.MachineConcurrency() {
		t.Fatal("concurrency differs between identical runs")
	}
}

func TestSimulateSeedChangesRun(t *testing.T) {
	a := Simulate(perfect.OCEAN(), arch.Cedar8, Options{Steps: 2, Seed: 1})
	b := Simulate(perfect.OCEAN(), arch.Cedar8, Options{Steps: 2, Seed: 2})
	if a.CT == b.CT {
		t.Fatal("different seeds produced identical completion times (suspicious)")
	}
}

func TestSimulateRunExposesInternals(t *testing.T) {
	run := mustRun(t, perfect.ADM(), arch.Cedar8, Options{Steps: 1, TraceCapacity: 1 << 16})
	if run.Machine == nil || run.OS == nil || run.RT == nil {
		t.Fatal("internals missing")
	}
	if run.Monitor == nil || len(run.Monitor.Trace()) == 0 {
		t.Fatal("monitor armed but no trace")
	}
	if run.Result.GM.Accesses == 0 {
		t.Fatal("no global memory traffic recorded")
	}
}

func TestSweepNormalizesToPaperCT1(t *testing.T) {
	s := Sweeps([]perfect.App{perfect.ADM()}, Options{Steps: 2})[0]
	base := s.Base()
	if base == nil {
		t.Fatal("no 1-processor result")
	}
	got := base.CTSeconds()
	if want := perfect.PaperCT1("ADM"); got < want*0.999 || got > want*1.001 {
		t.Fatalf("normalized CT1 = %v, want %v", got, want)
	}
	// Every result in the sweep shares the scale.
	for _, r := range s.Results {
		if r.Scale != base.Scale {
			t.Fatal("scale not propagated")
		}
	}
}

func TestAccountsConserveWithinCT(t *testing.T) {
	r := Simulate(perfect.MDG(), arch.Cedar32, Options{Steps: 1})
	for _, a := range r.Accounts {
		if a.Total() > r.CT {
			t.Fatalf("CE %d accounted %d > CT %d", a.CE(), a.Total(), r.CT)
		}
	}
}

// TestPaperQualitativeResults is the headline integration test: the
// paper's qualitative findings must hold in the model at full
// calibration (default steps).
func TestPaperQualitativeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-calibration sweep in -short mode")
	}
	opts := Options{}
	sweeps := map[string]*core.Sweep{}
	for _, s := range Sweeps(perfect.Apps(), opts) {
		sweeps[s.App] = s
	}

	s32 := func(app string) float64 {
		s := sweeps[app]
		return s.Results[32].Speedup(s.Base())
	}

	// (1) Table 1: MDG obtains nearly linear speedups; ADM flattens
	// between 16 and 32 processors; FLO52 scales worst of the
	// sdoall apps.
	if s32("MDG") < 20 {
		t.Errorf("MDG 32p speedup %.1f, want near-linear (paper: 24.4)", s32("MDG"))
	}
	adm := sweeps["ADM"]
	admGrowth := adm.Results[32].Speedup(adm.Base()) / adm.Results[16].Speedup(adm.Base())
	if admGrowth > 1.25 {
		t.Errorf("ADM did not flatten 16p->32p: growth factor %.2f (paper: 1.04)", admGrowth)
	}
	if s32("FLO52") > s32("ARC2D") || s32("FLO52") > s32("MDG") {
		t.Error("FLO52 should scale worse than ARC2D and MDG")
	}

	// (2) Speedups are lower than average concurrency (overheads eat
	// part of the active processors' time).
	for app, s := range sweeps {
		r := s.Results[32]
		if sp := r.Speedup(s.Base()); sp > r.MachineConcurrency() {
			t.Errorf("%s: speedup %.1f exceeds concurrency %.1f", app, sp, r.MachineConcurrency())
		}
	}

	// (3) Section 5: OS overhead grows with processor count and lands
	// in 5-21%% of CT on the 4-cluster machine; kernel lock spin is
	// negligible (< 1%%).
	for app, s := range sweeps {
		os1 := s.Results[1].OSShare()
		os32 := s.Results[32].OSShare()
		if os32 <= os1 {
			t.Errorf("%s: OS share did not grow with scaling (%.3f -> %.3f)", app, os1, os32)
		}
		if os32 < 0.03 || os32 > 0.25 {
			t.Errorf("%s: 32p OS share %.1f%% outside the paper's 5-21%% band (with slack)",
				app, os32*100)
		}
		var spin, total float64
		for _, a := range s.Results[32].Accounts {
			spin += float64(a.Get(metrics.CatOSSpin))
			total += float64(s.Results[32].CT)
		}
		if spin/total > 0.01 {
			t.Errorf("%s: kernel lock spin %.2f%% not negligible", app, spin/total*100)
		}
	}

	// (4) Section 6: parallelization overheads on the 4-cluster Cedar
	// are substantial (paper: 10-25%% main task, 15-44%% helpers), and
	// helpers carry more than the main task.
	for app, s := range sweeps {
		r := s.Results[32]
		main := r.Task(0).OverheadFraction()
		helper := r.Task(1).OverheadFraction()
		if main < 0.02 || main > 0.45 {
			t.Errorf("%s: main task overhead %.1f%% outside a plausible band", app, main*100)
		}
		if helper <= main {
			t.Errorf("%s: helper overhead %.1f%% not above main %.1f%%",
				app, helper*100, main*100)
		}
	}

	// (5) Section 6: the xdoall distribution overhead exceeds the
	// sdoall one (ADM vs FLO52 pick shares at 32p).
	admPick := sweeps["ADM"].Results[32].Task(1).Pick
	floPick := sweeps["FLO52"].Results[32].Task(1).Pick
	if admPick <= floPick {
		t.Errorf("xdoall pick share %.2f%% not above sdoall pick share %.2f%%",
			admPick*100, floPick*100)
	}

	// (6) Section 7: contention overhead grows with processors for
	// every app and is substantial at 32p; FLO52 has the highest.
	for app, s := range sweeps {
		base := s.Base()
		ov4, _ := core.ContentionOverhead(base, s.Results[4])
		ov32, _ := core.ContentionOverhead(base, s.Results[32])
		if ov32.OvCont <= ov4.OvCont {
			t.Errorf("%s: Ov_cont did not grow: %.1f -> %.1f", app, ov4.OvCont, ov32.OvCont)
		}
		if ov32.OvCont < 2 {
			t.Errorf("%s: Ov_cont %.1f%% at 32p not substantial", app, ov32.OvCont)
		}
	}
	flo32, _ := core.ContentionOverhead(sweeps["FLO52"].Base(), sweeps["FLO52"].Results[32])
	for _, app := range []string{"ARC2D", "MDG", "OCEAN", "ADM"} {
		other, _ := core.ContentionOverhead(sweeps[app].Base(), sweeps[app].Results[32])
		if other.OvCont > flo32.OvCont {
			t.Errorf("FLO52 should have the highest 32p contention; %s has %.1f vs %.1f",
				app, other.OvCont, flo32.OvCont)
		}
	}

	// (7) Conclusion: overheads together are a large share of CT on
	// the 4-cluster machine ("as much as 30-50%").
	for app, s := range sweeps {
		total := core.TotalOverheadShare(s.Base(), s.Results[32])
		if total < 0.15 || total > 0.75 {
			t.Errorf("%s: total overhead share %.1f%% implausible vs paper's 30-50%%",
				app, total*100)
		}
	}
}

func TestSpeedupShapeMatchesPaperWithin35Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-calibration sweep in -short mode")
	}
	for _, s := range Sweeps(perfect.Apps(), Options{}) {
		paper := perfect.PaperTable1[s.App]
		for _, p := range []int{4, 8, 16, 32} {
			got := s.Results[p].Speedup(s.Base())
			want := paper.Speedup[p]
			if got < want*0.65 || got > want*1.35 {
				t.Errorf("%s %dp: speedup %.2f vs paper %.2f (outside ±35%%)",
					s.App, p, got, want)
			}
		}
	}
}

func TestClusteringBeatsFlatMachineOnFineGrain(t *testing.T) {
	// Section 6's "was clustering a good idea?" — yes, in the regime
	// the paper argues from: frequent barriers on small loops, where a
	// 32-task busy-wait barrier through global memory both costs more
	// and creates a hot spot. (On coarse-grained loops the flat
	// machine's global self-scheduling can win on load balance; see
	// BenchmarkAblation_Clustering for both regimes.)
	app := perfect.FineGrained()
	clustered := Simulate(app, arch.Cedar32, Options{})
	flat := Simulate(app, arch.Unclustered32, Options{})
	if flat.CT <= clustered.CT {
		t.Fatalf("flat machine CT %d not worse than clustered %d on fine-grained loops",
			flat.CT, clustered.CT)
	}
}

// TestTable3ShapeWithinTolerance checks the parallel-loop-concurrency
// values against the paper cell by cell with a generous band — the
// quantity is the paper's Table 3 and the model should land near it
// everywhere, not just preserve orderings.
func TestTable3ShapeWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-calibration sweep in -short mode")
	}
	for _, s := range Sweeps(perfect.Apps(), Options{}) {
		for _, p := range []int{4, 8, 16, 32} {
			want := perfect.PaperTable3[s.App][p]
			got := s.Results[p].ParallelLoopConcurrency()
			for c := range want {
				if diff := got[c] - want[c]; diff > 1.6 || diff < -1.6 {
					t.Errorf("%s %dp cluster %d: par_concurr %.2f vs paper %.2f",
						s.App, p, c, got[c], want[c])
				}
			}
		}
	}
}

// TestTable4GrowthAndBand checks that each app's contention overhead
// at 32 processors lands within a factor-of-two band of the paper's
// value and that the paper's headline range (8-21% at 32p, stretched
// for model variance) covers the model.
func TestTable4GrowthAndBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-calibration sweep in -short mode")
	}
	for _, s := range Sweeps(perfect.Apps(), Options{}) {
		paper := perfect.PaperTable4[s.App].OvCont[32]
		cont, err := core.ContentionOverhead(s.Base(), s.Results[32])
		if err != nil {
			t.Fatal(err)
		}
		if cont.OvCont < paper*0.45 || cont.OvCont > paper*2.2 {
			t.Errorf("%s: 32p Ov_cont %.1f%% vs paper %.1f%% (outside factor-2 band)",
				s.App, cont.OvCont, paper)
		}
	}
}
