package gen

import (
	"reflect"
	"testing"

	"repro/internal/perfect"
)

// hotStride reports whether the app still has a phase with a module-
// aliasing stride — a cheap, deterministic stand-in for the simulated
// pathology predicate (cedar.Run.Pathologies).
func hotStride(a perfect.App) bool {
	for _, p := range a.Phases {
		if p.GMStride > 0 && p.GMStride%32 == 0 {
			return true
		}
	}
	return false
}

func TestShrinkAppReducesToCore(t *testing.T) {
	sp := Default()
	sp.Seed = 14
	sp.Hot = 1
	app := Generate(sp)
	if !hotStride(app) {
		t.Fatalf("seed 14 hot sample has no aliasing stride; phases: %+v", app.Phases)
	}
	orig := app.Phases[0]

	shrunk, runs := ShrinkApp(app, hotStride, 0)
	if runs == 0 {
		t.Fatal("shrink spent no runs")
	}
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunk app invalid: %v", err)
	}
	if !hotStride(shrunk) {
		t.Fatalf("shrunk app lost the property: %+v", shrunk.Phases)
	}
	if len(shrunk.Phases) != 1 {
		t.Errorf("shrunk to %d phases, want 1 (property needs one)", len(shrunk.Phases))
	}
	p := shrunk.Phases[0]
	if p.Repeat > 1 || p.WorkJitter != 0 || p.ClusWords != 0 {
		t.Errorf("knobs not simplified: %+v", p)
	}
	if shrunk.Steps != 1 {
		t.Errorf("Steps = %d, want 1", shrunk.Steps)
	}
	if shrunk.DataWords != shrunk.MinDataWords() {
		t.Errorf("DataWords = %d, want floor %d", shrunk.DataWords, shrunk.MinDataWords())
	}
	// The input must not be mutated by rejected candidates.
	if !reflect.DeepEqual(app.Phases[0], orig) {
		t.Errorf("input phase mutated: %+v", app.Phases[0])
	}
}

func TestShrinkAppNonReproducing(t *testing.T) {
	sp := Default()
	sp.Seed = 2
	app := Generate(sp)
	if hotStride(app) {
		t.Skip("seed 2 unexpectedly has an aliasing stride")
	}
	shrunk, runs := ShrinkApp(app, hotStride, 0)
	if runs != 1 {
		t.Errorf("runs = %d, want 1 (just the input check)", runs)
	}
	if !reflect.DeepEqual(shrunk, app) {
		t.Errorf("non-reproducing input changed: %+v", shrunk)
	}
}

func TestShrinkAppDeterministic(t *testing.T) {
	sp := Default()
	sp.Seed = 14
	sp.Hot = 1
	app := Generate(sp)
	a1, r1 := ShrinkApp(app, hotStride, 0)
	a2, r2 := ShrinkApp(app, hotStride, 0)
	if !reflect.DeepEqual(a1, a2) || r1 != r2 {
		t.Errorf("shrink not deterministic: %d vs %d runs", r1, r2)
	}
}

func TestShrinkAppBudget(t *testing.T) {
	sp := Default()
	sp.Seed = 14
	sp.Hot = 1
	app := Generate(sp)
	shrunk, runs := ShrinkApp(app, hotStride, 5)
	if runs > 5 {
		t.Errorf("runs = %d exceeds budget 5", runs)
	}
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("budgeted shrink returned invalid app: %v", err)
	}
	if !hotStride(shrunk) {
		t.Error("budgeted shrink lost the property")
	}
}
