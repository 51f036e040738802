package cfrt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestFailStopMidChain fail-stops a worker CE while its loop body's
// callback chain has a step pending: the first Compute, then the
// Global after it. The account must freeze with only the steps that
// completed before the failure, the dead CE must read idle, and the
// cluster job must still complete, as when the abort unwinds out of
// Hold.
func TestFailStopMidChain(t *testing.T) {
	const work = 1000
	for _, c := range []struct {
		name      string
		failAfter sim.Duration     // after the body starts
		busy      metrics.Category // the pending step's category
		completed sim.Duration     // loop time charged before the failure
	}{
		{"compute pending", work / 2, metrics.CatMCLoop, 0},
		{"global pending", work + 1, metrics.CatGMStall, work},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, m, o, rt := rig(arch.Cedar8)
			region := o.NewRegion("d", 4096)
			victim := m.CE(3)
			armed, checked, finished := false, false, false
			body := func(ec *ExecCtx, i int) {
				if ec.CE() == victim && !armed {
					armed = true
					want := *victim.Acct
					want.Add(metrics.CatMCLoop, c.completed)
					start := ec.Now()
					k.Schedule(start+c.failAfter, func() {
						if got := victim.Busy(); got != c.busy {
							t.Errorf("busy at the failure = %v, want %v", got, c.busy)
						}
						victim.Fail()
						rt.NotifyCEFailure(victim)
					})
					// Long after the pending step would have ended.
					k.Schedule(start+c.failAfter+10*work, func() {
						checked = true
						if got := victim.Busy(); got != metrics.CatIdle {
							t.Errorf("dead CE busy = %v, want idle", got)
						}
						if *victim.Acct != want {
							t.Errorf("account after the failure:\n%+v\nwant\n%+v", *victim.Acct, want)
						}
					})
				}
				ec.Compute(work)
				ec.Global(region, int64(i*16), 16)
				ec.Compute(300)
			}
			_, err := rt.RunErr(func(mt *Main) {
				// Map every page first, so no body step faults and
				// each body runs as one chain.
				mt.Serial(func(ec *ExecCtx) { ec.Global(region, 0, 4096) })
				mt.MCLoop(&Loop{Name: "l", Outer: 1, Inner: 64, Body: body})
				finished = true
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !armed || !checked {
				t.Fatalf("victim never ran a body (armed %v, checked %v)", armed, checked)
			}
			if !finished {
				t.Fatal("the cluster job never completed")
			}
			if !victim.Failed() || m.FailedCEs() != 1 {
				t.Fatalf("failed CEs = %d", m.FailedCEs())
			}
		})
	}
}
