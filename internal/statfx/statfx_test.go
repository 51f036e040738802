package statfx

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSamplerCountsActiveCEs(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, arch.Cedar8, arch.DefaultCosts())
	s := NewSampler(m, 100, nil)
	// Two CEs busy for 10k cycles, the rest idle.
	for g := 0; g < 2; g++ {
		ce := m.CE(g)
		k.Spawn("ce", func(p *sim.Proc) {
			ce.Proc = p
			ce.Spend(10_000, metrics.CatLoopIter)
		})
	}
	k.Run(10_000)
	s.Stop()
	k.RunAll()
	got := s.ClusterConcurrency(0)
	if got < 1.9 || got > 2.1 {
		t.Fatalf("sampled concurrency = %v, want ~2", got)
	}
	if s.Samples() == 0 {
		t.Fatal("no samples taken")
	}
}

func TestSamplerStops(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, arch.Cedar4, arch.DefaultCosts())
	s := NewSampler(m, 50, nil)
	k.Run(1000)
	s.Stop()
	n := s.Samples()
	k.Schedule(k.Now()+10_000, func() {}) // keep the clock moving
	k.RunAll()
	if s.Samples() != n {
		t.Fatal("sampler kept sampling after Stop")
	}
}

func TestExactIntegratesAccounts(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, arch.Cedar16, arch.DefaultCosts())
	// Cluster 0: 4 CEs active half the time. Cluster 1: idle.
	for g := 0; g < 4; g++ {
		m.CE(g).Acct.Add(metrics.CatLoopIter, 500)
	}
	per := Exact(m, 1000)
	if per[0] != 2.0 {
		t.Fatalf("cluster 0 concurrency = %v, want 2.0", per[0])
	}
	if per[1] != 0 {
		t.Fatalf("cluster 1 concurrency = %v, want 0", per[1])
	}
	if got := ExactMachine(m, 1000); got != 2.0 {
		t.Fatalf("machine concurrency = %v", got)
	}
}

func TestExactZeroCT(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, arch.Cedar4, arch.DefaultCosts())
	per := Exact(m, 0)
	for _, v := range per {
		if v != 0 {
			t.Fatal("nonzero concurrency at zero CT")
		}
	}
}

func TestSpinCountsActive(t *testing.T) {
	// A spinning lead CE is executing its poll loop: active.
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, arch.Cedar8, arch.DefaultCosts())
	m.CE(0).Acct.Add(metrics.CatHelperWait, 1000)
	m.CE(1).Acct.Add(metrics.CatIdle, 1000)
	per := Exact(m, 1000)
	if per[0] != 1.0 {
		t.Fatalf("concurrency = %v, want 1.0 (spinner active, idler not)", per[0])
	}
}
