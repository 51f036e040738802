package cedar

// Tests for the parallel sweep engine's core promise: wall-clock
// parallelism never touches virtual-time results. Every batch helper
// must produce byte-identical output at any Options.Parallel setting,
// because each simulation owns its kernel and deterministic seed and
// results are assembled in input order (see internal/engine).

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perfect"
)

// renderSweeps flattens every table the paper regenerates into one
// comparable byte string.
func renderSweeps(sweeps []*core.Sweep) string {
	var at32 []*core.Result
	for _, s := range sweeps {
		if r, ok := s.Results[32]; ok {
			at32 = append(at32, r)
		}
	}
	return core.Table1CSV(sweeps) + core.Figure3CSV(sweeps) + core.UserTimeCSV(sweeps) +
		core.Table2CSV(at32) + core.Table3CSV(sweeps) + core.Table4CSV(sweeps)
}

func TestSweepParallelByteIdentical(t *testing.T) {
	app := perfect.FLO52()
	seq := renderSweeps(Sweeps([]perfect.App{app}, Options{Steps: 1, Parallel: 1}))
	for _, workers := range []int{2, 4, 16} {
		par := renderSweeps(Sweeps([]perfect.App{app}, Options{Steps: 1, Parallel: workers}))
		if seq != par {
			t.Fatalf("Sweep output differs between -parallel 1 and -parallel %d:\n%s\nvs\n%s",
				workers, seq, par)
		}
	}
}

func TestSweepsParallelByteIdentical(t *testing.T) {
	apps := []perfect.App{perfect.FLO52(), perfect.OCEAN()}
	seq := renderSweeps(Sweeps(apps, Options{Steps: 1, Parallel: 1}))
	par := renderSweeps(Sweeps(apps, Options{Steps: 1, Parallel: 4}))
	if seq != par {
		t.Fatalf("Sweeps output differs between sequential and parallel paths:\n%s\nvs\n%s", seq, par)
	}
}

// TestParallelSweepSpeedup is the benchmark job's wall-clock gate: the
// full five-application paper sweep at -parallel 4 must run at least
// twice as fast as at -parallel 1. Timing whole sweeps on shared CI
// runners is inherently noisy, so the gate only runs where it is
// meaningful: when CEDAR_SPEEDUP_GATE=1 is set (the CI benchmark job)
// and at least 4 CPUs are available.
func TestParallelSweepSpeedup(t *testing.T) {
	if os.Getenv("CEDAR_SPEEDUP_GATE") != "1" {
		t.Skip("speedup gate disabled; set CEDAR_SPEEDUP_GATE=1 to run")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 CPUs for the 2x gate, have %d", runtime.GOMAXPROCS(0))
	}
	timeIt := func(parallel int) time.Duration {
		start := time.Now()
		sweeps := Sweeps(perfect.Apps(), Options{Parallel: parallel})
		if len(sweeps) != len(perfect.Apps()) {
			t.Fatalf("Sweeps returned %d sweeps", len(sweeps))
		}
		return time.Since(start)
	}
	timeIt(4) // warm-up: page in code and stabilize the heap
	seq := timeIt(1)
	par := timeIt(4)
	speedup := float64(seq) / float64(par)
	t.Logf("five-app paper sweep: -parallel 1 %v, -parallel 4 %v, speedup %.2fx", seq, par, speedup)
	if speedup < 2 {
		t.Fatalf("parallel sweep speedup %.2fx < 2x (sequential %v, parallel %v)", speedup, seq, par)
	}
}
