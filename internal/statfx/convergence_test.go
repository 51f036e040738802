package statfx

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// runPattern drives every CE of the machine through a deterministic,
// aperiodic busy/idle pattern for total cycles: bursts of prime-length
// busy and idle phases with per-CE offsets, so no sampling interval
// can alias onto the workload. It returns when virtual time total has
// elapsed.
func runPattern(k *sim.Kernel, m *cluster.Machine, total sim.Duration) {
	for g := 0; g < m.Cfg.CEs(); g++ {
		ce := m.CE(g)
		offset := sim.Duration(g) * 131
		k.Spawn("ce", func(p *sim.Proc) {
			ce.Proc = p
			spent := sim.Duration(0)
			spend := func(d sim.Duration, cat metrics.Category) {
				if d > total-spent {
					d = total - spent
				}
				if d > 0 {
					ce.Spend(d, cat)
					spent += d
				}
			}
			spend(offset, metrics.CatIdle)
			for spent < total {
				spend(733, metrics.CatLoopIter)
				spend(317, metrics.CatIdle)
				spend(211, metrics.CatSerial)
				spend(97, metrics.CatIdle)
			}
		})
	}
	k.Run(sim.Time(total))
}

// TestSamplerConvergesToExact is the property the paper's statfx
// monitor relies on: as the sampling interval shrinks, the sampled
// average concurrency converges to the account-integrated (exact)
// value. Each interval runs the identical deterministic workload.
func TestSamplerConvergesToExact(t *testing.T) {
	const total = 100_000
	intervals := []sim.Duration{8_000, 2_000, 500, 125}
	errs := make([]float64, len(intervals))
	var exact float64
	for i, interval := range intervals {
		k := sim.NewKernel(42)
		m := cluster.NewMachine(k, arch.Cedar16, arch.DefaultCosts())
		s := NewSampler(m, interval, nil)
		runPattern(k, m, total)
		s.Stop()
		e := ExactMachine(m, total)
		if i == 0 {
			exact = e
		} else if math.Abs(e-exact) > 1e-9 {
			t.Fatalf("exact concurrency not deterministic: %v vs %v", e, exact)
		}
		errs[i] = math.Abs(s.MachineConcurrency() - e)
		if s.Samples() == 0 {
			t.Fatalf("interval %d: no samples", interval)
		}
	}
	if exact <= 1 {
		t.Fatalf("workload too idle for a meaningful test: exact = %v", exact)
	}
	// The finest interval must beat the coarsest, and land within 2% of
	// exact. (Strict monotonicity is not guaranteed — a coarse grid can
	// get lucky — so the property is endpoint improvement plus a bound.)
	if errs[len(errs)-1] >= errs[0] {
		t.Errorf("no convergence: errors %v for intervals %v", errs, intervals)
	}
	if rel := errs[len(errs)-1] / exact; rel > 0.02 {
		t.Errorf("finest interval error %.4f (%.1f%% of exact %v), want <= 2%%",
			errs[len(errs)-1], rel*100, exact)
	}
}

// TestSamplerUnderCEFailStop locks in the fail-stop accounting fix: a
// CE killed mid-Spend must stop counting as active, or the sampled
// concurrency of a degraded run would be overstated forever after the
// fault (the abort unwinds out of Hold before the spend path restores
// the CE's busy category).
func TestSamplerUnderCEFailStop(t *testing.T) {
	k := sim.NewKernel(7)
	m := cluster.NewMachine(k, arch.Cedar4, arch.DefaultCosts())
	s := NewSampler(m, 1_000, nil)
	for g := 0; g < 4; g++ {
		ce := m.CE(g)
		k.Spawn("ce", func(p *sim.Proc) {
			ce.Proc = p
			defer func() {
				// Swallow the abort the fail-stop delivers.
				if r := recover(); r != nil && r != sim.ErrAborted {
					panic(r)
				}
			}()
			ce.Spend(100_000, metrics.CatLoopIter)
		})
	}
	k.Schedule(50_000, func() { m.CE(2).Fail() })
	k.Run(100_000)
	s.Stop()

	if m.FailedCEs() != 1 {
		t.Fatalf("FailedCEs = %d, want 1", m.FailedCEs())
	}
	if m.CE(2).Busy().IsActive() {
		t.Fatal("failed CE still reports an active busy category")
	}
	// 4 CEs active for the first half, 3 for the second: average 3.5.
	got := s.MachineConcurrency()
	if got < 3.4 || got > 3.6 {
		t.Fatalf("sampled concurrency = %v, want ~3.5 (dead CE must not count)", got)
	}
}
