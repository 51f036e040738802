package cedar

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index):
//
//	BenchmarkTable1_SpeedupConcurrency
//	BenchmarkFigure3_CTBreakdown
//	BenchmarkTable2_OSDetail
//	BenchmarkFigures5to9_UserTimeBreakdown
//	BenchmarkTable3_ParallelLoopConcurrency
//	BenchmarkTable4_ContentionOverhead
//
// plus the ablation studies from the paper's Section 6 discussion:
//
//	BenchmarkAblation_Clustering      (clustered vs 32 independent CEs)
//	BenchmarkAblation_CombiningTree   (flat spin barrier vs ref [16])
//	BenchmarkAblation_LoopMerging     (merging adjacent SDOALLs)
//	BenchmarkAblation_XdoallVsSdoall  (construct choice vs CE count)
//
// The five-application, five-configuration instrumented sweep is
// simulated once per process and shared by the table benchmarks (the
// measured quantity is the analysis/regeneration step); the ablation
// and end-to-end benchmarks simulate inside the timed loop. Run with
// -v to see every regenerated table.
import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perfect"
)

var (
	sweepOnce sync.Once
	sweeps    []*core.Sweep
)

func paperSweeps(b *testing.B) []*core.Sweep {
	b.Helper()
	sweepOnce.Do(func() {
		sweeps = Sweeps(perfect.Apps(), Options{})
	})
	return sweeps
}

func BenchmarkTable1_SpeedupConcurrency(b *testing.B) {
	ss := paperSweeps(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = core.FormatTable1(ss)
	}
	b.StopTimer()
	b.Log("\n" + out)
}

func BenchmarkFigure3_CTBreakdown(b *testing.B) {
	ss := paperSweeps(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, s := range ss {
			out += core.FormatFigure3(s)
		}
	}
	b.StopTimer()
	b.Log("\n" + out)
}

func BenchmarkTable2_OSDetail(b *testing.B) {
	ss := paperSweeps(b)
	var at32 []*core.Result
	for _, s := range ss {
		at32 = append(at32, s.Results[32])
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = core.FormatTable2(at32)
	}
	b.StopTimer()
	b.Log("\n" + out)
}

func BenchmarkFigures5to9_UserTimeBreakdown(b *testing.B) {
	ss := paperSweeps(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, s := range ss {
			out += core.FormatUserTime(s)
		}
	}
	b.StopTimer()
	b.Log("\n" + out)
}

func BenchmarkTable3_ParallelLoopConcurrency(b *testing.B) {
	ss := paperSweeps(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = core.FormatTable3(ss)
	}
	b.StopTimer()
	b.Log("\n" + out)
}

func BenchmarkTable4_ContentionOverhead(b *testing.B) {
	ss := paperSweeps(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = core.FormatTable4(ss)
	}
	b.StopTimer()
	b.Log("\n" + out)
}

// BenchmarkEndToEnd_FLO52Sweep times a full instrumented sweep of one
// application across all five configurations — the cost of
// regenerating the paper's columns from scratch.
func BenchmarkEndToEnd_FLO52Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := Sweeps([]perfect.App{perfect.FLO52()}, Options{})[0]
		if s.Results[32].CT == 0 {
			b.Fatal("no completion time")
		}
	}
}

// BenchmarkPaperSweep times the full five-application paper sweep —
// every table's raw material — through the parallel engine at fixed
// worker counts. The parallel-1 sub-benchmark is the sequential
// baseline; parallel-4 is what the CI benchmark job compares it
// against (the wall-clock speedup gate lives in
// TestParallelSweepSpeedup). The per-simulation virtual-time results
// are identical at every worker count, so the sub-benchmarks measure
// pure scheduling, not different work.
func BenchmarkPaperSweep(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ss := Sweeps(perfect.Apps(), Options{Parallel: workers})
				if len(ss) != len(perfect.Apps()) {
					b.Fatalf("Sweeps returned %d sweeps", len(ss))
				}
			}
		})
	}
}

// BenchmarkAblation_Clustering compares the real clustered Cedar with
// the hypothetical machine of 32 independent processors (Section 6:
// "was clustering a good idea?"), in both granularity regimes.
func BenchmarkAblation_Clustering(b *testing.B) {
	for _, app := range []perfect.App{perfect.FineGrained(), perfect.CoarseGrained()} {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var ctC, ctF float64
			for i := 0; i < b.N; i++ {
				clustered := Simulate(app, arch.Cedar32, Options{})
				flat := Simulate(app, arch.Unclustered32, Options{})
				ctC = float64(clustered.CT)
				ctF = float64(flat.CT)
			}
			b.ReportMetric(ctF/ctC, "flat/clustered-CT")
			b.Logf("%s: clustered CT %.0f cycles, flat CT %.0f cycles (ratio %.2f)",
				app.Name, ctC, ctF, ctF/ctC)
		})
	}
}

// BenchmarkAblation_CombiningTree compares the flat busy-wait barrier
// with the software combining tree of reference [16] on the
// unclustered machine, reporting the hot-spot reduction.
func BenchmarkAblation_CombiningTree(b *testing.B) {
	app := perfect.FineGrained()
	for _, fanout := range []int{0, 2, 4, 8} {
		fanout := fanout
		name := "flat-spin"
		if fanout > 1 {
			name = fmt.Sprintf("tree-fanout%d", fanout)
		}
		b.Run(name, func(b *testing.B) {
			var ct float64
			var hot float64
			for i := 0; i < b.N; i++ {
				run := mustRun(b, app, arch.Unclustered32, Options{TreeFanout: fanout})
				ct = float64(run.Result.CT)
				_, d := run.Machine.GM.Net().MaxPortDelay()
				hot = float64(d)
			}
			b.ReportMetric(ct, "CT-cycles")
			b.ReportMetric(hot, "hot-port-delay")
			b.Logf("%s: CT %.0f cycles, worst-port queueing %.0f cycles", name, ct, hot)
		})
	}
}

// BenchmarkAblation_LoopMerging quantifies the Section-6 suggestion of
// merging adjacent independent SDOALLs to eliminate barriers: k
// separate loops versus one merged loop with k times the iterations.
func BenchmarkAblation_LoopMerging(b *testing.B) {
	// k fine-grained adjacent SDOALLs versus one merged SDOALL with k
	// times the spread iterations: merging removes k-1 barrier
	// synchronizations and work-posting rounds per step. Identical
	// total work, iteration shape, and data footprint.
	// Pure-compute bodies isolate the synchronization cost (no paging
	// or traffic differences between the two layouts).
	const k = 12
	split := perfect.SyntheticSpec{
		Name: "split", Steps: 4, LoopsPerStep: k,
		Outer: 4, Inner: 8, Work: 500, ClusWords: 32,
		DataWords: 16 * 1024,
	}.App()
	merged := perfect.SyntheticSpec{
		Name: "merged", Steps: 4, LoopsPerStep: 1,
		Outer: 4 * k, Inner: 8, Work: 500, ClusWords: 32,
		DataWords: 16 * 1024,
	}.App()
	var ctSplit, ctMerged, bwSplit, bwMerged float64
	for i := 0; i < b.N; i++ {
		rs := Simulate(split, arch.Cedar32, Options{})
		rm := Simulate(merged, arch.Cedar32, Options{})
		ctSplit, ctMerged = float64(rs.CT), float64(rm.CT)
		bwSplit = rs.Task(0).Barrier + rs.Task(1).HelperWait
		bwMerged = rm.Task(0).Barrier + rm.Task(1).HelperWait
	}
	b.ReportMetric(ctSplit/ctMerged, "split/merged-CT")
	b.Logf("%d separate sdoalls: CT %.0f cycles (barrier+hwait %.1f%%); merged: CT %.0f cycles (%.1f%%); %.1f%% of CT saved",
		k, ctSplit, bwSplit*100, ctMerged, bwMerged*100, (1-ctMerged/ctSplit)*100)
}

// BenchmarkAblation_XdoallVsSdoall compares the two constructs on the
// same loop across CE counts — the Section-6 finding that the flat
// construct's distribution overhead grows with processors while the
// hierarchical construct's stays negligible.
func BenchmarkAblation_XdoallVsSdoall(b *testing.B) {
	mk := func(kind perfect.PhaseKind) perfect.App {
		return perfect.SyntheticSpec{
			Name: "construct", Steps: 4, LoopsPerStep: 4, Kind: kind,
			Outer: 16, Inner: 16, Work: 1500, GMWords: 48,
		}.App()
	}
	// The paper's finding is about the distribution overhead: picking
	// iterations through the global lock costs the flat construct more
	// as processors are added, while the hierarchical construct's
	// pickup stays negligible. (Total completion time can still favor
	// XDOALL when its global self-scheduling balances load better —
	// which is exactly why "the xdoalls were often used for
	// convenience".)
	pickShare := func(r *core.Result) float64 {
		var pick float64
		for _, a := range r.Accounts {
			pick += float64(a.Get(metrics.CatPickIter))
		}
		return pick / (float64(r.CT) * float64(r.Cfg.CEs()))
	}
	for _, cfg := range []arch.Config{arch.Cedar4, arch.Cedar8, arch.Cedar32} {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			var pickS, pickX, ctS, ctX float64
			for i := 0; i < b.N; i++ {
				rs := Simulate(mk(perfect.PhaseSX), cfg, Options{})
				rx := Simulate(mk(perfect.PhaseX), cfg, Options{})
				pickS, pickX = pickShare(rs), pickShare(rx)
				ctS, ctX = float64(rs.CT), float64(rx.CT)
			}
			b.ReportMetric(pickX*100, "xdoall-pick-%")
			b.ReportMetric(pickS*100, "sdoall-pick-%")
			b.Logf("%s: pick overhead sdoall %.2f%% vs xdoall %.2f%% of CT; CT ratio x/s %.3f",
				cfg.Name, pickS*100, pickX*100, ctX/ctS)
		})
	}
}

// BenchmarkAblation_XdoallChunking measures the standard mitigation
// for the flat construct's distribution overhead: claiming chunks of
// iterations per global-lock pickup. Chunk 1 is the Cedar runtime the
// paper measured.
func BenchmarkAblation_XdoallChunking(b *testing.B) {
	app := perfect.SyntheticSpec{
		Name: "chunking", Steps: 4, LoopsPerStep: 6, Kind: perfect.PhaseX,
		Outer: 1, Inner: 256, Work: 900, GMWords: 32,
	}.App()
	pickShare := func(r *core.Result) float64 {
		var pick float64
		for _, a := range r.Accounts {
			pick += float64(a.Get(metrics.CatPickIter))
		}
		return pick / (float64(r.CT) * float64(r.Cfg.CEs()))
	}
	for _, chunk := range []int{1, 4, 16} {
		chunk := chunk
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			var ct, pick float64
			for i := 0; i < b.N; i++ {
				r := Simulate(app, arch.Cedar32, Options{XdoallChunk: chunk})
				ct = float64(r.CT)
				pick = pickShare(r)
			}
			b.ReportMetric(ct, "CT-cycles")
			b.ReportMetric(pick*100, "pick-%")
			b.Logf("chunk %d: CT %.0f cycles, pick overhead %.2f%% of CT", chunk, ct, pick*100)
		})
	}
}
