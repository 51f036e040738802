package arch

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperConfigsValid(t *testing.T) {
	want := []int{1, 4, 8, 16, 32}
	cfgs := PaperConfigs()
	if len(cfgs) != len(want) {
		t.Fatalf("got %d configs, want %d", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.CEs() != want[i] {
			t.Errorf("%s: CEs = %d, want %d", c.Name, c.CEs(), want[i])
		}
	}
}

func TestSingleClusterSmallConfigs(t *testing.T) {
	// The paper's footnote: 1-, 4-, 8-processor configurations are all
	// one cluster.
	for _, c := range []Config{Cedar1, Cedar4, Cedar8} {
		if c.Clusters != 1 {
			t.Errorf("%s: clusters = %d, want 1", c.Name, c.Clusters)
		}
	}
	if Cedar16.Clusters != 2 || Cedar32.Clusters != 4 {
		t.Errorf("multi-cluster configs wrong: %d, %d", Cedar16.Clusters, Cedar32.Clusters)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "no-clusters", Clusters: 0, CEsPerCluster: 8, GMModules: 32, NetStages: 2, SwitchDegree: 8},
		{Name: "big-cluster", Clusters: 1, CEsPerCluster: 9, GMModules: 32, NetStages: 2, SwitchDegree: 8},
		{Name: "five-clusters", Clusters: 5, CEsPerCluster: 8, GMModules: 32, NetStages: 2, SwitchDegree: 8},
		{Name: "odd-modules", Clusters: 1, CEsPerCluster: 8, GMModules: 31, NetStages: 2, SwitchDegree: 8},
		{Name: "no-stages", Clusters: 1, CEsPerCluster: 8, GMModules: 32, NetStages: 0, SwitchDegree: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", c.Name)
		}
	}
}

func TestCEIDRoundTrip(t *testing.T) {
	c := Cedar32
	seen := map[int]bool{}
	for cl := 0; cl < c.Clusters; cl++ {
		for l := 0; l < c.CEsPerCluster; l++ {
			id := CEID{Cluster: cl, Local: l}
			g := id.Global(c)
			if seen[g] {
				t.Fatalf("duplicate global id %d", g)
			}
			seen[g] = true
			if back := c.CEByGlobal(g); back != id {
				t.Fatalf("round trip %v -> %d -> %v", id, g, back)
			}
		}
	}
	if len(seen) != 32 {
		t.Fatalf("enumerated %d CEs, want 32", len(seen))
	}
}

func TestQuickCEIDRoundTrip(t *testing.T) {
	f := func(g uint8) bool {
		c := Cedar32
		id := c.CEByGlobal(int(g) % c.CEs())
		return id.Global(c) == int(g)%c.CEs() &&
			id.Cluster >= 0 && id.Cluster < c.Clusters &&
			id.Local >= 0 && id.Local < c.CEsPerCluster
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsCyclesRoundTrip(t *testing.T) {
	if got := Seconds(Cycles(3.5)); got != 3.5 {
		t.Fatalf("Seconds(Cycles(3.5)) = %v", got)
	}
	if got := Seconds(CyclesPerSecond); got != 1.0 {
		t.Fatalf("1 second = %v", got)
	}
	// 50 ns per cycle.
	if got := Seconds(1); got != 50e-9 {
		t.Fatalf("1 cycle = %v s, want 50 ns", got)
	}
}

func TestUnclustered32(t *testing.T) {
	if !Unclustered32.Unclustered {
		t.Fatal("Unclustered32 not flagged")
	}
	if Unclustered32.CEs() != 32 {
		t.Fatalf("Unclustered32 CEs = %d", Unclustered32.CEs())
	}
	if err := Unclustered32.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFamiliesAllValid(t *testing.T) {
	want := map[string]int{
		"1proc": 1, "4proc": 4, "8proc": 8, "16proc": 16, "32proc": 32,
		"32flat": 32, "64proc": 64, "64deep": 64, "128proc": 128, "256proc": 256,
		"1024proc": 1024, "4096proc": 4096,
	}
	fams := Families()
	if len(fams) != len(want) {
		t.Fatalf("got %d families, want %d", len(fams), len(want))
	}
	for _, c := range fams {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if ces, ok := want[c.Name]; !ok || c.CEs() != ces {
			t.Errorf("%s: CEs = %d, want %d", c.Name, c.CEs(), ces)
		}
	}
}

func TestFamilyByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Config
	}{
		{"32proc", Cedar32},
		{"Cedar32", Cedar32},
		{"scaled64", Scaled64},
		{"64proc", Scaled64},
		{"SCALED128", Scaled128},
		{"deep64", Deep64},
		{"32flat", Unclustered32},
		{"1024proc", Scaled1024},
		{"Scaled4096", Scaled4096},
	} {
		got, ok := FamilyByName(tc.name)
		if !ok || got != tc.want {
			t.Errorf("FamilyByName(%q) = %+v, %v; want %s", tc.name, got, ok, tc.want.Name)
		}
	}
	if _, ok := FamilyByName("9999proc"); ok {
		t.Error("FamilyByName accepted an unknown name")
	}
	msg := UnknownConfigError("9999proc").Error()
	if !strings.HasPrefix(msg, `unknown configuration "9999proc" (known: 1proc, `) || !strings.Contains(msg, "32flat") {
		t.Errorf("UnknownConfigError = %q, want the name and the known family", msg)
	}
}

func TestGroupStructure(t *testing.T) {
	// Two-stage machines: one group per stage-1 switch (degree modules).
	if s := Cedar32.GroupSpan(); s != 8 {
		t.Errorf("Cedar32 group span = %d, want 8", s)
	}
	if g := Cedar32.Groups(); g != 4 {
		t.Errorf("Cedar32 groups = %d, want 4", g)
	}
	// Three-stage Deep64: a top-level group spans degree^2 modules.
	if s := Deep64.GroupSpan(); s != 64 {
		t.Errorf("Deep64 group span = %d, want 64", s)
	}
	if g := Deep64.Groups(); g != 8 {
		t.Errorf("Deep64 groups = %d, want 8", g)
	}
	for _, c := range Families() {
		if c.GroupSpan()*c.Groups() < c.GMModules {
			t.Errorf("%s: groups %d x span %d do not cover %d modules",
				c.Name, c.Groups(), c.GroupSpan(), c.GMModules)
		}
	}
}

func TestValidateNamesScalingConstraints(t *testing.T) {
	// Each violated topology constraint must be identified in the error
	// (the CLI surfaces these verbatim).
	for _, tc := range []struct {
		cfg  Config
		frag string
	}{
		{Config{Name: "x", Clusters: 1, CEsPerCluster: 1, GMModules: 512, NetStages: 2, SwitchDegree: 8},
			"addresses at most"},
		{Config{Name: "x", Clusters: 8, CEsPerCluster: 8, GMModules: 32, NetStages: 2, SwitchDegree: 8},
			"exceed network width"},
		{Config{Name: "x", Clusters: 4, CEsPerCluster: 2, GMModules: 8, NetStages: 3, SwitchDegree: 2},
			"selects the cluster"},
		{Config{Name: "x", Clusters: 1, CEsPerCluster: 9, GMModules: 32, NetStages: 2, SwitchDegree: 8},
			"return links overflow"},
	} {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%+v: Validate accepted unrealizable config", tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%+v: error %q does not name the constraint (want %q)", tc.cfg, err, tc.frag)
		}
	}
}

func TestDefaultCostsSane(t *testing.T) {
	cm := DefaultCosts()
	if cm.ModuleCyclesPerWord != 4 {
		t.Errorf("module cycles = %d, want 4 (paper)", cm.ModuleCyclesPerWord)
	}
	if cm.PageFaultConc <= 0 {
		t.Error("concurrent fault surcharge must be positive: a participant" +
			" pays it on top of waiting out the service, making concurrent" +
			" faults dearer than sequential ones (paper)")
	}
	if cm.SyscallGlobal <= cm.SyscallCluster {
		t.Error("global syscall must cost more than cluster syscall")
	}
	if cm.PageBytes <= 0 || cm.CacheLineWords <= 0 {
		t.Error("non-positive size constants")
	}
}
