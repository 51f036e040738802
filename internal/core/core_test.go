package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fake builds a synthetic Result without running a simulation, so the
// methodology can be unit-tested against hand-computed values.
func fake(cfg arch.Config, ct sim.Time) *Result {
	r := &Result{
		App:   "TEST",
		Cfg:   cfg,
		Scale: 1,
		CT:    ct,
	}
	for i := 0; i < cfg.CEs(); i++ {
		r.Accounts = append(r.Accounts, metrics.NewAccount(i))
	}
	r.SXWall = make([]sim.Duration, cfg.Clusters)
	r.MCWall = make([]sim.Duration, cfg.Clusters)
	r.Concurrency = make([]float64, cfg.Clusters)
	return r
}

func TestSpeedup(t *testing.T) {
	base := fake(arch.Cedar1, 1000)
	r := fake(arch.Cedar8, 250)
	if got := r.Speedup(base); got != 4 {
		t.Fatalf("speedup = %v, want 4", got)
	}
}

func TestSecondsScaling(t *testing.T) {
	r := fake(arch.Cedar1, arch.CyclesPerSecond) // 1 simulated second
	r.Scale = 613
	if got := r.CTSeconds(); math.Abs(got-613) > 1e-9 {
		t.Fatalf("scaled seconds = %v, want 613", got)
	}
}

func TestParallelFraction(t *testing.T) {
	r := fake(arch.Cedar32, 1000)
	r.SXWall[0] = 600
	r.MCWall[0] = 100
	r.SXWall[1] = 500
	if got := r.ParallelFraction(0); got != 0.7 {
		t.Fatalf("main pf = %v, want 0.7 (sx+mc)", got)
	}
	if got := r.ParallelFraction(1); got != 0.5 {
		t.Fatalf("helper pf = %v, want 0.5 (sx only)", got)
	}
}

func TestParallelLoopConcurrencyEquation(t *testing.T) {
	// Paper equation: (1-pf) + pf*pc = avg  =>  pc = (avg-1+pf)/pf.
	r := fake(arch.Cedar32, 1000)
	r.SXWall[0] = 800 // pf = 0.8
	r.Concurrency[0] = 6.0
	pc := r.ParallelLoopConcurrency()
	want := (6.0 - 1 + 0.8) / 0.8 // = 7.25
	if math.Abs(pc[0]-want) > 1e-9 {
		t.Fatalf("pc = %v, want %v", pc[0], want)
	}
}

func TestParallelLoopConcurrencyClamped(t *testing.T) {
	r := fake(arch.Cedar32, 1000)
	r.SXWall[0] = 100 // pf = 0.1
	r.Concurrency[0] = 7.9
	pc := r.ParallelLoopConcurrency()
	if pc[0] > 8 {
		t.Fatalf("pc = %v exceeds CEs/cluster", pc[0])
	}
	r2 := fake(arch.Cedar32, 1000)
	r2.SXWall[0] = 500
	r2.Concurrency[0] = 0.2 // nonsense low concurrency
	if pc := r2.ParallelLoopConcurrency(); pc[0] < 1 {
		t.Fatalf("pc = %v below 1", pc[0])
	}
}

func TestContentionSingleCluster(t *testing.T) {
	// T_p_ideal = (T1_mc + T1_sx) / par_concurr on <= 8 processors.
	base := fake(arch.Cedar1, 1000)
	base.SXWall[0] = 700
	base.MCWall[0] = 100

	r := fake(arch.Cedar8, 300)
	r.SXWall[0] = 200
	r.MCWall[0] = 30
	r.Concurrency[0] = 0.23333333333333334*8 + 0 // engineered below
	// pf = 230/300; choose avg so pc = 4 exactly:
	pf := 230.0 / 300.0
	r.Concurrency[0] = (1 - pf) + pf*4

	cont, err := ContentionOverhead(base, r)
	if err != nil {
		t.Fatal(err)
	}
	if cont.TpActual != 230 {
		t.Fatalf("Tp_actual = %d, want 230", cont.TpActual)
	}
	if want := sim.Duration(800 / 4); cont.TpIdeal != want {
		t.Fatalf("Tp_ideal = %d, want %d", cont.TpIdeal, want)
	}
	wantOv := (230.0 - 200.0) / 300.0 * 100
	if math.Abs(cont.OvCont-wantOv) > 1e-9 {
		t.Fatalf("Ov = %v, want %v", cont.OvCont, wantOv)
	}
}

func TestContentionMultiCluster(t *testing.T) {
	// T_p_ideal = T1_mc/pc_main + T1_sx/pc_total on multi-cluster.
	base := fake(arch.Cedar1, 1000)
	base.SXWall[0] = 800
	base.MCWall[0] = 80

	r := fake(arch.Cedar16, 200)
	r.SXWall[0] = 100
	r.MCWall[0] = 20
	r.SXWall[1] = 90
	// Engineer pc = 4 on both clusters.
	pf0 := 120.0 / 200.0
	pf1 := 90.0 / 200.0
	r.Concurrency[0] = (1 - pf0) + pf0*4
	r.Concurrency[1] = (1 - pf1) + pf1*4

	cont, err := ContentionOverhead(base, r)
	if err != nil {
		t.Fatal(err)
	}
	want := 80.0/4 + 800.0/8 // mc over main pc, sx over total pc
	if math.Abs(float64(cont.TpIdeal)-want) > 1.0 {
		t.Fatalf("Tp_ideal = %d, want %v", cont.TpIdeal, want)
	}
}

func TestContentionRequires1PBase(t *testing.T) {
	base := fake(arch.Cedar8, 1000)
	r := fake(arch.Cedar32, 100)
	if _, err := ContentionOverhead(base, r); err == nil {
		t.Fatal("accepted a non-1p base")
	}
	base2 := fake(arch.Cedar1, 1000)
	r2 := fake(arch.Cedar32, 100)
	r2.App = "OTHER"
	if _, err := ContentionOverhead(base2, r2); err == nil {
		t.Fatal("accepted mismatched apps")
	}
}

func TestTaskBreakdownFolding(t *testing.T) {
	r := fake(arch.Cedar16, 1000)
	lead := r.Accounts[0]
	lead.Add(metrics.CatSerial, 100)
	lead.Add(metrics.CatLoopIter, 300)
	lead.Add(metrics.CatGMStall, 50)
	lead.Add(metrics.CatCacheStall, 50)
	lead.Add(metrics.CatBarrierWait, 100)
	lead.Add(metrics.CatHelperWait, 0)
	lead.Add(metrics.CatLoopSetup, 10)
	lead.Add(metrics.CatPickIter, 40)

	tb := r.Task(0)
	if !tb.IsMain {
		t.Fatal("cluster 0 not main")
	}
	if tb.Serial != 0.1 {
		t.Fatalf("serial = %v", tb.Serial)
	}
	// Stalls fold into iteration execution.
	if math.Abs(tb.Iter-0.4) > 1e-9 {
		t.Fatalf("iter = %v, want 0.4", tb.Iter)
	}
	if got := tb.OverheadFraction(); math.Abs(got-0.15) > 1e-9 {
		t.Fatalf("overhead = %v, want 0.15", got)
	}

	helper := r.Task(1)
	if helper.IsMain {
		t.Fatal("cluster 1 marked main")
	}
}

func TestOSDetailAveragesPerCE(t *testing.T) {
	r := fake(arch.Cedar32, 1000)
	r.OS.Add(metrics.OSCpi, 3200) // 100 cycles per CE
	rows := r.OSDetail()
	if rows[metrics.OSCpi].Percent != 10 {
		t.Fatalf("cpi percent = %v, want 10 (100/1000)", rows[metrics.OSCpi].Percent)
	}
	if rows[metrics.OSCpi].Count != 1 {
		t.Fatalf("cpi count = %d", rows[metrics.OSCpi].Count)
	}
}

// A cluster task's Figure-3 view is its lead CE's timeline alone.
func TestClusterBreakdownUsesLead(t *testing.T) {
	r := fake(arch.Cedar16, 1000)
	lead := arch.Cedar16.CEsPerCluster
	r.Accounts[lead].Add(metrics.CatHelperWait, 400)
	r.Accounts[lead+3].Add(metrics.CatOSSystem, 900) // not the lead

	b := r.ClusterBreakdown(1)
	if math.Abs(b.User-0.4) > 1e-9 {
		t.Fatalf("cluster task user = %v, want lead's 0.4", b.User)
	}
	if b.System != 0 {
		t.Fatal("non-lead account leaked into the task view")
	}
}

func TestOSShare(t *testing.T) {
	r := fake(arch.Cedar4, 1000)
	for _, a := range r.Accounts {
		a.Add(metrics.CatOSSystem, 100)
		a.Add(metrics.CatOSInterrupt, 50)
		a.Add(metrics.CatOSSpin, 10)
	}
	if got := r.OSShare(); math.Abs(got-0.16) > 1e-9 {
		t.Fatalf("OS share = %v, want 0.16", got)
	}
}

func TestQuickEquationInverts(t *testing.T) {
	// For any pf in (0,1] and pc in [1,8], plugging avg back through
	// ParallelLoopConcurrency recovers pc.
	f := func(pfRaw, pcRaw uint8) bool {
		pf := float64(pfRaw%100+1) / 100
		pc := 1 + float64(pcRaw%71)/10 // [1, 8]
		r := fake(arch.Cedar32, 1000)
		r.SXWall[0] = sim.Duration(pf * 1000)
		realPf := r.ParallelFraction(0)
		r.Concurrency[0] = (1 - realPf) + realPf*pc
		got := r.ParallelLoopConcurrency()[0]
		return math.Abs(got-pc) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOvContSign(t *testing.T) {
	// Whenever actual parallel time exceeds the ideal, Ov_cont is
	// positive, and vice versa.
	f := func(actRaw, idealRaw uint16) bool {
		base := fake(arch.Cedar1, 100_000)
		base.SXWall[0] = sim.Duration(idealRaw) * 4 // T1 = 4*ideal target
		r := fake(arch.Cedar4, 50_000)
		r.SXWall[0] = sim.Duration(actRaw)
		pf := r.ParallelFraction(0)
		if pf == 0 {
			return true
		}
		r.Concurrency[0] = (1 - pf) + pf*4 // pc = 4 exactly
		cont, err := ContentionOverhead(base, r)
		if err != nil {
			return false
		}
		diff := int64(actRaw) - int64(idealRaw)
		switch {
		case diff > 0:
			return cont.OvCont > 0
		case diff < 0:
			return cont.OvCont < 0
		default:
			return math.Abs(cont.OvCont) < 1e-9
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSweepHelpers(t *testing.T) {
	s := &Sweep{App: "TEST", Results: map[int]*Result{
		32: fake(arch.Cedar32, 100),
		1:  fake(arch.Cedar1, 1000),
		8:  fake(arch.Cedar8, 300),
	}}
	cfgs := s.Configs()
	if len(cfgs) != 3 || cfgs[0] != 1 || cfgs[2] != 32 {
		t.Fatalf("configs = %v", cfgs)
	}
	if s.Base().Cfg.CEs() != 1 {
		t.Fatal("base is not the 1-processor run")
	}
}

func TestFormattersDoNotPanic(t *testing.T) {
	mk := func(cfg arch.Config, ct sim.Time) *Result {
		r := fake(cfg, ct)
		r.SXWall[0] = ct / 2
		r.Concurrency[0] = 3
		return r
	}
	s := &Sweep{App: "TEST", Results: map[int]*Result{
		1:  mk(arch.Cedar1, 1000),
		4:  mk(arch.Cedar4, 400),
		8:  mk(arch.Cedar8, 250),
		16: mk(arch.Cedar16, 160),
		32: mk(arch.Cedar32, 110),
	}}
	sweeps := []*Sweep{s}
	for _, out := range []string{
		FormatTable1(sweeps),
		FormatFigure3(s),
		FormatTable2([]*Result{s.Results[32]}),
		FormatUserTime(s),
		FormatTable3(sweeps),
		FormatTable4(sweeps),
	} {
		if out == "" {
			t.Fatal("empty formatter output")
		}
	}
}

func TestForAccountBreakdown(t *testing.T) {
	a := metrics.NewAccount(0)
	a.Add(metrics.CatSerial, 300)
	a.Add(metrics.CatBarrierWait, 100) // user-level spin is user time
	a.Add(metrics.CatOSSystem, 200)
	a.Add(metrics.CatOSInterrupt, 100)
	a.Add(metrics.CatOSSpin, 50)

	b := forAccount(a, 1000)
	if math.Abs(b.User-0.4) > 1e-9 {
		t.Fatalf("user = %v, want 0.4", b.User)
	}
	if math.Abs(b.System-0.2) > 1e-9 || math.Abs(b.Interrupt-0.1) > 1e-9 || math.Abs(b.Spin-0.05) > 1e-9 {
		t.Fatalf("sys/int/spin = %v/%v/%v", b.System, b.Interrupt, b.Spin)
	}
	if math.Abs(b.Idle-0.25) > 1e-9 {
		t.Fatalf("idle = %v, want 0.25", b.Idle)
	}
	if math.Abs(b.OSShare()-0.35) > 1e-9 {
		t.Fatalf("OS share = %v, want 0.35", b.OSShare())
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	a := metrics.NewAccount(0)
	a.Add(metrics.CatLoopIter, 123)
	a.Add(metrics.CatGMStall, 456)
	a.Add(metrics.CatOSSystem, 78)
	b := forAccount(a, 1000)
	sum := b.User + b.System + b.Interrupt + b.Spin + b.Idle
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestBreakdownZeroCT(t *testing.T) {
	a := metrics.NewAccount(0)
	b := forAccount(a, 0)
	if b.User != 0 || b.OSShare() != 0 {
		t.Fatal("nonzero breakdown at zero CT")
	}
}
