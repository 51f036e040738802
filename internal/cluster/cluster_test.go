package cluster

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func machine(cfg arch.Config) (*sim.Kernel, *Machine) {
	k := sim.NewKernel(1)
	return k, NewMachine(k, cfg, arch.DefaultCosts())
}

func TestMachineShape(t *testing.T) {
	_, m := machine(arch.Cedar32)
	if len(m.Clusters) != 4 {
		t.Fatalf("clusters = %d", len(m.Clusters))
	}
	for _, cl := range m.Clusters {
		if len(cl.CEs) != 8 {
			t.Fatalf("cluster %d CEs = %d", cl.ID, len(cl.CEs))
		}
	}
	if got := len(m.AllCEs()); got != 32 {
		t.Fatalf("AllCEs = %d", got)
	}
	if got := len(m.Accounts()); got != 32 {
		t.Fatalf("Accounts = %d", got)
	}
}

func TestCEIndexing(t *testing.T) {
	_, m := machine(arch.Cedar32)
	for g := 0; g < 32; g++ {
		ce := m.CE(g)
		if ce.Global() != g {
			t.Fatalf("CE(%d).Global() = %d", g, ce.Global())
		}
		if ce.Acct.CE() != g {
			t.Fatalf("CE(%d) account bound to %d", g, ce.Acct.CE())
		}
	}
}

func TestAllocGMInterleaves(t *testing.T) {
	_, m := machine(arch.Cedar32)
	a := m.AllocGM(100)
	b := m.AllocGM(100)
	if a == b {
		t.Fatal("allocations overlap")
	}
	if b-a < 100 {
		t.Fatalf("allocation too small: %d..%d", a, b)
	}
}

func TestSpendChargesAccount(t *testing.T) {
	k, m := machine(arch.Cedar1)
	ce := m.CE(0)
	k.Spawn("ce", func(p *sim.Proc) {
		ce.Proc = p
		ce.Spend(100, metrics.CatSerial)
		ce.Spend(50, metrics.CatOSSystem)
		ce.Spend(0, metrics.CatIdle) // no-op
	})
	k.RunAll()
	if got := ce.Acct.Get(metrics.CatSerial); got != 100 {
		t.Fatalf("serial = %d", got)
	}
	if got := ce.Acct.Get(metrics.CatOSSystem); got != 50 {
		t.Fatalf("os-system = %d", got)
	}
	if got := ce.Acct.Total(); got != 150 {
		t.Fatalf("total = %d", got)
	}
	if k.Now() != 150 {
		t.Fatalf("clock = %d", k.Now())
	}
}

func TestGMAccessChargesStall(t *testing.T) {
	k, m := machine(arch.Cedar4)
	ce := m.CE(0)
	var stall sim.Duration
	k.Spawn("ce", func(p *sim.Proc) {
		ce.Proc = p
		stall, _ = ce.GMAccessAs(0, 8, metrics.CatGMStall)
	})
	k.RunAll()
	if stall <= 0 {
		t.Fatal("no stall recorded")
	}
	if got := ce.Acct.Get(metrics.CatGMStall); got != stall {
		t.Fatalf("charged %d, stalled %d", got, stall)
	}
}

func TestGMAccessContentionBetweenCEs(t *testing.T) {
	k, m := machine(arch.Cedar8)
	var totalQ sim.Duration
	for g := 0; g < 8; g++ {
		ce := m.CE(g)
		k.Spawn("ce", func(p *sim.Proc) {
			ce.Proc = p
			for i := 0; i < 10; i++ {
				_, q := ce.GMAccessAs(0, 32, metrics.CatGMStall) // same region: guaranteed conflicts
				totalQ += q
			}
		})
	}
	k.RunAll()
	if totalQ == 0 {
		t.Fatal("8 CEs hammering one region produced no queueing")
	}
}

func TestConcBusSerializes(t *testing.T) {
	k, m := machine(arch.Cedar8)
	cost := arch.DefaultCosts()
	var finish []sim.Time
	for g := 0; g < 2; g++ {
		ce := m.CE(g)
		k.Spawn("ce", func(p *sim.Proc) {
			ce.Proc = p
			ce.ConcBusOp(cost.ConcBusDispatch, metrics.CatLoopSetup)
			finish = append(finish, p.Now())
		})
	}
	k.RunAll()
	if len(finish) != 2 || finish[0] == finish[1] {
		t.Fatalf("conc bus did not serialize: %v", finish)
	}
}

func TestCacheAccessCharged(t *testing.T) {
	k, m := machine(arch.Cedar4)
	ce := m.CE(1)
	k.Spawn("ce", func(p *sim.Proc) {
		ce.Proc = p
		p.Hold(ce.StartCacheAccess(64, 0.5))
		ce.FinishStep()
	})
	k.RunAll()
	if ce.Acct.Get(metrics.CatCacheStall) == 0 {
		t.Fatal("cache stall not charged")
	}
	if ce.Cluster.Cache.StallTotal() == 0 {
		t.Fatal("cluster cache recorded nothing")
	}
}

func TestChargeDoesNotAdvanceTime(t *testing.T) {
	k, m := machine(arch.Cedar1)
	ce := m.CE(0)
	k.Spawn("ce", func(p *sim.Proc) {
		ce.Proc = p
		ce.Charge(500, metrics.CatBarrierWait)
	})
	k.RunAll()
	if k.Now() != 0 {
		t.Fatalf("Charge advanced clock to %d", k.Now())
	}
	if ce.Acct.Get(metrics.CatBarrierWait) != 500 {
		t.Fatal("Charge not recorded")
	}
}
