package faults

import (
	"testing"

	"repro/internal/sim"
)

func mustParse(t *testing.T, spec string) Plan {
	t.Helper()
	plan, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestShrinkDDMin drives the shrinker with a synthetic predicate: the
// failure reproduces iff the plan still kills CE 1 inside the window
// [70000, 80000]. Everything else must be stripped and the kill time
// snapped to the coarsest grid that stays inside the window.
func TestShrinkDDMin(t *testing.T) {
	plan := mustParse(t, "ce:4x3.75@47085,module:3x4@23648,ce:1@76414,lock:-1@30000+12345,ce:2@90000")
	runs := 0
	failing := func(cand Plan) bool {
		runs++
		for _, ev := range cand {
			if ev.Kind == CEFail && ev.Target == 1 &&
				ev.At >= 70_000 && ev.At <= 80_000 {
				return true
			}
		}
		return false
	}
	shrunk, spent := Shrink(plan, failing, 0)
	if len(shrunk) != 1 {
		t.Fatalf("shrunk to %d events (%s), want 1", len(shrunk), shrunk)
	}
	ev := shrunk[0]
	if ev.Kind != CEFail || ev.Target != 1 {
		t.Fatalf("shrunk to wrong event: %s", ev)
	}
	if ev.At != 70_000 {
		t.Fatalf("kill time %d not simplified to 70000", ev.At)
	}
	if spent != runs || spent > 200 {
		t.Fatalf("run accounting wrong: spent=%d, predicate calls=%d", spent, runs)
	}

	// A plan that does not fail comes back unchanged.
	ok := mustParse(t, "ce:5@999")
	same, _ := Shrink(ok, failing, 50)
	if same.String() != ok.String() {
		t.Fatalf("non-failing plan was modified: %s", same)
	}
}

func TestShrinkRespectsMaxRuns(t *testing.T) {
	plan := mustParse(t, "ce:1@100,ce:2@200,ce:3@300,ce:4@400")
	calls := 0
	_, spent := Shrink(plan, func(Plan) bool { calls++; return true }, 5)
	if calls > 5 || spent > 5 {
		t.Fatalf("maxRuns=5 exceeded: calls=%d spent=%d", calls, spent)
	}
}

func TestMergeWindows(t *testing.T) {
	got := MergeWindows([]Window{
		{Start: 500, End: 600},
		{Start: 100, End: 200},
		{Start: 150, End: 300}, // overlaps the previous
		{Start: 300, End: 350}, // touches: still one window
	})
	want := []Window{{Start: 100, End: 350}, {Start: 500, End: 600}}
	if len(got) != len(want) {
		t.Fatalf("merged to %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged to %v, want %v", got, want)
		}
	}
	if MergeWindows(nil) != nil {
		t.Fatal("empty input must merge to nil")
	}
}

func TestSweepTimesDeterministicAndBounded(t *testing.T) {
	base := mustParse(t, "port:0x4@1000")
	windows := []Window{{Start: 68_740, End: 78_403}, {Start: 3_000, End: 13_200}}
	ces := []int{1, 2, 3, 4, 5, 6, 7}

	a := SweepTimes(base, windows, ces, 16, 42, 25)
	b := SweepTimes(base, windows, ces, 16, 42, 25)
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("sweep sizes %d, %d, want 25", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("sweep not deterministic at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	differs := false
	for i := range a {
		if a[i].String() != SweepTimes(base, windows, ces, 16, 43, 25)[i].String() {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical sweeps")
	}

	for i, plan := range a {
		if len(plan) == 0 || plan[0] != base[0] {
			t.Fatalf("plan %d dropped the base prefix: %s", i, plan)
		}
		kills := 0
		for _, ev := range plan {
			switch ev.Kind {
			case CEFail:
				kills++
				found := false
				for _, c := range ces {
					if ev.Target == c {
						found = true
					}
				}
				if !found {
					t.Fatalf("plan %d kills ineligible CE %d", i, ev.Target)
				}
				// Kill times stay near the windows (jitter <= 64 either side).
				near := false
				for _, w := range windows {
					if ev.At >= saturSub(w.Start, 64) && ev.At <= w.End+64 {
						near = true
					}
				}
				if !near {
					t.Fatalf("plan %d kill at %d lands outside every window", i, ev.At)
				}
			case CESlow:
				if ev.Factor < 1.25 {
					t.Fatalf("plan %d slow factor %g < 1.25", i, ev.Factor)
				}
			case ModuleSlow:
				if ev.Target < 0 || ev.Target >= 16 {
					t.Fatalf("plan %d module %d out of range", i, ev.Target)
				}
			}
		}
		if kills == 0 {
			t.Fatalf("plan %d has no fail-stop: %s", i, plan)
		}
	}

	if got := SweepTimes(base, nil, ces, 16, 1, 5); got != nil {
		t.Fatal("no windows must yield no plans")
	}
	if got := SweepTimes(base, windows, nil, 16, 1, 5); got != nil {
		t.Fatal("no eligible CEs must yield no plans")
	}
}

func saturSub(t sim.Time, d sim.Time) sim.Time {
	if d > t {
		return 0
	}
	return t - d
}
