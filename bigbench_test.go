package cedar

// BenchmarkBigConfig measures intra-run speed: events per second of
// wall-clock time while simulating ONE big machine, as opposed to
// BenchmarkPaperSweep's many-small-simulations throughput. A single
// large run is the wall-clock floor for every interactive use (no
// sweep parallelism can hide it), so this benchmark is the trend line
// for the calendar-tiered event queue and the struct-of-arrays machine
// state. The committed BENCH_bigconfig.json baseline is gated by
// cedarbenchdiff alongside the kernel micro-benchmarks, and
// cedarbenchdiff -min-speedup 1.3 holds it at least 1.3x faster than
// BENCH_bigconfig_seed.json, the capture recorded before the tiered
// queue and the struct-of-arrays machine state landed.

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/perfect"
)

// BenchmarkBigConfig runs FLO52, weak-scaled to the machine, on the
// Scaled256 configuration — the dense-event regime the paper's
// Section-7 decomposition needs at scale: 256 CE processes, 256 memory
// modules, and a two-stage network of 16x16 switches whose port
// reservations produce the per-cycle event band the tiered queue is
// built for. The reported events/sec metric is kernel dispatch
// throughput over the whole run (setup included), which is what an
// interactive caller experiences.
func BenchmarkBigConfig(b *testing.B) {
	app := perfect.FLO52().Scaled(perfect.ScaleFactorFor(arch.Scaled256.CEs()))
	var events uint64
	for i := 0; i < b.N; i++ {
		run := mustRun(b, app, arch.Scaled256, Options{})
		if run.Result.CT == 0 {
			b.Fatal("no completion time")
		}
		events += run.Machine.Kernel.EventsFired()
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}
