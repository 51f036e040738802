package metrics

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCategoryNames(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "" {
			t.Fatalf("category %d unnamed", c)
		}
	}
	if Category(99).String() != "Category(99)" {
		t.Fatal("out-of-range category misformatted")
	}
}

func TestCategoryClassification(t *testing.T) {
	// Figure 3: user time includes user-level spinning; OS categories
	// and idle are not user time.
	for _, c := range []Category{CatSerial, CatMCLoop, CatLoopIter, CatGMStall,
		CatCacheStall, CatLoopSetup, CatPickIter, CatBarrierWait, CatHelperWait} {
		if !c.IsUser() {
			t.Errorf("%v should be user time", c)
		}
	}
	for _, c := range []Category{CatOSSystem, CatOSInterrupt, CatOSSpin, CatIdle} {
		if c.IsUser() {
			t.Errorf("%v should not be user time", c)
		}
	}

	// statfx: only parked CEs are inactive.
	for c := Category(0); c < NumCategories; c++ {
		if (c == CatIdle) == c.IsActive() {
			t.Errorf("%v active=%v wrong", c, c.IsActive())
		}
	}
}

func TestAccountTotals(t *testing.T) {
	a := NewAccount(5)
	if a.CE() != 5 {
		t.Fatal("CE id lost")
	}
	a.Add(CatSerial, 100)
	a.Add(CatOSSystem, 50)
	a.Add(CatBarrierWait, 25)
	a.Add(CatIdle, 10)
	if a.Total() != 185 {
		t.Fatalf("total = %d", a.Total())
	}
	if a.UserTotal() != 125 {
		t.Fatalf("user = %d", a.UserTotal())
	}
	if a.ActiveTotal() != 175 {
		t.Fatalf("active = %d", a.ActiveTotal())
	}
}

func TestAccountNegativeChargePanics(t *testing.T) {
	a := NewAccount(0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge accepted")
		}
	}()
	a.Add(CatSerial, -1)
}

func TestOSBreakdown(t *testing.T) {
	var b OSBreakdown
	b.Add(OSCpi, 100)
	b.Add(OSCpi, 50)
	b.Add(OSCtx, 30)
	if b.Time[OSCpi] != 150 || b.Count[OSCpi] != 2 {
		t.Fatalf("cpi = %d/%d", b.Time[OSCpi], b.Count[OSCpi])
	}
	if b.Total() != 180 {
		t.Fatalf("total = %d", b.Total())
	}
}

func TestOSCategoryNamesMatchPaper(t *testing.T) {
	want := map[OSCategory]string{
		OSCpi:         "cpi",
		OSCtx:         "ctx",
		OSPgFltConc:   "pg flt (c)",
		OSPgFltSeq:    "pg flt (s)",
		OSCrSectClus:  "Cr Sect (clus)",
		OSCrSectGlbl:  "Cr Sect (glbl)",
		OSClusSyscall: "clus syscall",
		OSGlblSyscall: "glbl syscall",
		OSAst:         "ast",
	}
	for cat, name := range want {
		if cat.String() != name {
			t.Errorf("%d: %q != %q", cat, cat.String(), name)
		}
	}
}

func TestQuickAccountSumsMatch(t *testing.T) {
	f := func(charges []uint16) bool {
		a := NewAccount(0)
		var total, user int64
		for i, raw := range charges {
			c := Category(i % int(NumCategories))
			a.Add(c, sim.Duration(raw))
			total += int64(raw)
			if c.IsUser() {
				user += int64(raw)
			}
		}
		return int64(a.Total()) == total && int64(a.UserTotal()) == user
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
