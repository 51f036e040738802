package perfect

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/cfrt"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xylem"
)

func TestAllAppsValid(t *testing.T) {
	apps := Apps()
	if len(apps) != 5 {
		t.Fatalf("got %d apps, want 5", len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestConstructUsageMatchesPaper(t *testing.T) {
	// "FLO52 only uses the hierarchical SDOALL/CDOALL construct; ADM
	// uses only the flat XDOALL construct; the other applications use
	// both."
	kinds := func(a App) (sx, x bool) {
		for _, p := range a.Phases {
			switch p.Kind {
			case PhaseSX:
				sx = true
			case PhaseX:
				x = true
			}
		}
		return
	}
	for _, a := range Apps() {
		sx, x := kinds(a)
		switch a.Name {
		case "FLO52":
			if !sx || x {
				t.Errorf("FLO52 construct mix wrong: sx=%v x=%v", sx, x)
			}
		case "ADM":
			if sx || !x {
				t.Errorf("ADM construct mix wrong: sx=%v x=%v", sx, x)
			}
		default:
			if !sx || !x {
				t.Errorf("%s should use both constructs: sx=%v x=%v", a.Name, sx, x)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("MDG"); !ok {
		t.Fatal("MDG not found")
	}
	if _, ok := ByName("mdg"); ok {
		t.Fatal("lookup is supposed to be case-sensitive")
	}
	if _, ok := ByName("NOPE"); ok {
		t.Fatal("found a nonexistent app")
	}
}

func TestWithSteps(t *testing.T) {
	a := FLO52().WithSteps(3)
	if a.Steps != 3 {
		t.Fatalf("steps = %d", a.Steps)
	}
	if FLO52().Steps == 3 {
		t.Fatal("WithSteps mutated the original")
	}
}

func TestValidateRejectsBadApps(t *testing.T) {
	bad := []App{
		{Name: "", Steps: 1, DataWords: 10, Phases: []Phase{{Kind: PhaseSerial}}},
		{Name: "x", Steps: 0, DataWords: 10, Phases: []Phase{{Kind: PhaseSerial}}},
		{Name: "x", Steps: 1, DataWords: 0, Phases: []Phase{{Kind: PhaseSerial}}},
		{Name: "x", Steps: 1, DataWords: 10},
		{Name: "x", Steps: 1, DataWords: 10, Phases: []Phase{{Kind: PhaseSX, Inner: 0}}},
		{Name: "x", Steps: 1, DataWords: 10, Phases: []Phase{{Kind: PhaseSX, Inner: 4, WorkJitter: 2}}},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad app %d accepted", i)
		}
	}
}

func TestPaperDataComplete(t *testing.T) {
	for _, a := range Apps() {
		row, ok := PaperTable1[a.Name]
		if !ok {
			t.Fatalf("no Table 1 data for %s", a.Name)
		}
		for _, p := range []int{1, 4, 8, 16, 32} {
			if row.CT[p] <= 0 {
				t.Errorf("%s: missing CT at %dp", a.Name, p)
			}
		}
		if _, ok := PaperTable3[a.Name]; !ok {
			t.Errorf("no Table 3 data for %s", a.Name)
		}
		if _, ok := PaperTable4[a.Name]; !ok {
			t.Errorf("no Table 4 data for %s", a.Name)
		}
	}
	if len(PaperTable2) != 3 {
		t.Errorf("Table 2 covers %d apps, want 3 (FLO52, ARC2D, MDG)", len(PaperTable2))
	}
	if PaperCT1("FLO52") != 613 {
		t.Errorf("FLO52 CT1 = %v", PaperCT1("FLO52"))
	}
	if PaperCT1("NOPE") != 0 {
		t.Error("unknown app returned nonzero CT1")
	}
}

func TestSpeedupsConsistentWithCTs(t *testing.T) {
	// The paper's published speedups equal CT1/CTp within rounding.
	for app, row := range PaperTable1 {
		for _, p := range []int{4, 8, 16, 32} {
			implied := row.CT[1] / row.CT[p]
			if diff := implied - row.Speedup[p]; diff > 0.12 || diff < -0.12 {
				t.Errorf("%s %dp: implied speedup %.2f vs published %.2f",
					app, p, implied, row.Speedup[p])
			}
		}
	}
}

// runApp executes an app (reduced steps) end to end on a config.
func runApp(t *testing.T, a App, cfg arch.Config) sim.Time {
	t.Helper()
	k := sim.NewKernel(11)
	m := cluster.NewMachine(k, cfg, arch.DefaultCosts())
	o := xylem.New(m)
	rt := cfrt.New(m, o)
	region := o.NewRegion(a.Name, a.DataWords)
	return rt.Run(a.Program(region))
}

func TestAppsExecuteOnAllConfigs(t *testing.T) {
	for _, a := range Apps() {
		a := a.WithSteps(1)
		prev := sim.Time(1 << 62)
		for _, cfg := range []arch.Config{arch.Cedar1, arch.Cedar8, arch.Cedar32} {
			ct := runApp(t, a, cfg)
			if ct <= 0 {
				t.Fatalf("%s on %s: no completion time", a.Name, cfg.Name)
			}
			if ct >= prev {
				t.Errorf("%s on %s: CT %d not faster than previous config %d",
					a.Name, cfg.Name, ct, prev)
			}
			prev = ct
		}
	}
}

func TestPhaseSpanGeometry(t *testing.T) {
	p := Phase{Kind: PhaseSX, Outer: 4, Inner: 8, GMWords: 100}
	if got := p.Total(); got != 32 {
		t.Fatalf("total = %d", got)
	}
	if got := p.span(); got != 32*100+100 {
		t.Fatalf("span = %d", got)
	}
	p.GMStride = 20
	if got := p.span(); got != 32*20+100 {
		t.Fatalf("strided span = %d", got)
	}
	p.GMStride = 2 // tiny span hits the floor
	if got := p.span(); got != 512 {
		t.Fatalf("span floor = %d", got)
	}
	s := Phase{Kind: PhaseSerial, GMWords: 64}
	if got := s.span(); got != 512 {
		t.Fatalf("serial span floor = %d", got)
	}
}

func TestQuickSpanPositive(t *testing.T) {
	f := func(outer, inner, gw, stride uint8) bool {
		p := Phase{Kind: PhaseSX, Outer: int(outer), Inner: int(inner),
			GMWords: int(gw), GMStride: int(stride)}
		return p.span() >= 512 && p.Total() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalIterationsSane(t *testing.T) {
	for _, a := range Apps() {
		n := a.TotalIterations()
		if n < 1000 || n > 200_000 {
			t.Errorf("%s: %d total iterations (outside sane band)", a.Name, n)
		}
	}
}
