package cedar

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/perfect"
)

// pathApp builds a minimal app around the given phases, with the
// footprint floored at the validation minimum.
func pathApp(name string, dataWords int64, hit float64, phases ...perfect.Phase) perfect.App {
	a := perfect.App{Name: name, Steps: 2, DataWords: dataWords, CacheHitRatio: hit, Phases: phases}
	if m := a.MinDataWords(); a.DataWords < m {
		a.DataWords = m
	}
	return a
}

// TestPathologyDetectorsHealthy pins the detectors' negative side:
// none of the registry workloads (paper apps and presets) trip any
// detector on the paper configurations the fuzzer sweeps.
func TestPathologyDetectorsHealthy(t *testing.T) {
	for _, app := range perfect.Registry() {
		for _, cfg := range []arch.Config{arch.Cedar8, arch.Cedar32} {
			run := mustRun(t, app, cfg, Options{Steps: 2})
			if p := run.Pathologies(); len(p) != 0 {
				t.Errorf("%s on %s: unexpected pathologies %v", app.Name, cfg.Name, p)
			}
		}
	}
}

// TestPathologyDetectorsPositive pins one canonical reproduction per
// pathology class. These are the corners the generator's fuzz sweep
// hunts, reduced to hand-sized apps.
func TestPathologyDetectorsPositive(t *testing.T) {
	cases := []struct {
		app  perfect.App
		want []string
	}{
		{
			// Stride 32 aliases every access onto a handful of the 32
			// word-interleaved modules; tiny Work keeps the traffic hot.
			pathApp("hot", 4096, 0.98, perfect.Phase{
				Name: "h", Kind: perfect.PhaseX, Repeat: 8, Inner: 2048,
				Work: 10, GMWords: 4, GMStride: 32}),
			[]string{PathologyHotSpot},
		},
		{
			// Inner barely exceeds the CE count with full work jitter:
			// every one of the 100 barriers convoys behind a straggler.
			pathApp("convoy", 8192, 0.95, perfect.Phase{
				Name: "c", Kind: perfect.PhaseX, Repeat: 50, Inner: 9,
				Work: 10000, WorkJitter: 1.0, GMWords: 1}),
			[]string{PathologyBarrierConvoy},
		},
		{
			// A megaword footprint walked at a scattered stride with a
			// 5% cache hit ratio faults continuously.
			pathApp("storm", 1<<20, 0.05, perfect.Phase{
				Name: "s", Kind: perfect.PhaseX, Inner: 512, Work: 200,
				GMWords: 8, GMStride: 997}),
			[]string{PathologyPageStorm},
		},
	}
	for _, tc := range cases {
		if err := tc.app.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.app.Name, err)
		}
		run := mustRun(t, tc.app, arch.Cedar8, Options{})
		if got := run.Pathologies(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Pathologies() = %v, want %v", tc.app.Name, got, tc.want)
		}
	}
}

// TestPathologiesDeterministic: the shrink predicate replays the same
// app repeatedly, so detection must be stable run to run.
func TestPathologiesDeterministic(t *testing.T) {
	app := pathApp("hot", 4096, 0.98, perfect.Phase{
		Name: "h", Kind: perfect.PhaseX, Repeat: 8, Inner: 2048,
		Work: 10, GMWords: 4, GMStride: 32})
	first := mustRun(t, app, arch.Cedar8, Options{}).Pathologies()
	for i := 0; i < 2; i++ {
		if got := mustRun(t, app, arch.Cedar8, Options{}).Pathologies(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: Pathologies() = %v, previously %v", i+2, got, first)
		}
	}
}
