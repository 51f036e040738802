package cfrt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestFailStopMidChain fail-stops a worker CE while its loop body's
// callback chain has a step pending: the first Compute, then the
// Global after it, then a CDOACROSS iteration's serialized region,
// with the doacross lock held. The account must freeze with only the
// steps that completed before the failure, the dead CE must read idle,
// a lock it held must pass on, and the cluster job must still
// complete, as when the abort unwinds out of Hold.
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
	t.Run("serialized region pending", func(t *testing.T) {
		k, m, o, rt := rig(arch.Cedar8)
		k.SetMaxCycles(100 * 64 * work) // a lock left held hangs the job
		region := o.NewRegion("d", 4096)
		victim := m.CE(3)
		ec := &rt.bodies[victim.Global()]
		var want metrics.Account
		var lock *sim.Resource
		failed, checked, finished := false, false, false
		// Poll the victim's chain until its serialized region is in
		// progress, then fail it there.
		var poll func()
		poll = func() {
			if ec.phase != phaseRegion {
				k.After(10, poll)
				return
			}
			failed = true
			lock = ec.held
			if lock == nil || lock != ec.job.across {
				t.Errorf("victim in its region holds %v, not the doacross lock", lock)
			}
			want = *victim.Acct
			victim.Fail()
			rt.NotifyCEFailure(victim)
			// Long after the region would have ended.
			k.After(10*work, func() {
				checked = true
				if got := victim.Busy(); got != metrics.CatIdle {
					t.Errorf("dead CE busy = %v, want idle", got)
				}
				if *victim.Acct != want {
					t.Errorf("account after the failure:\n%+v\nwant\n%+v", *victim.Acct, want)
				}
			})
		}
		_, err := rt.RunErr(func(mt *Main) {
			mt.Serial(func(ec *ExecCtx) { ec.Global(region, 0, 4096) })
			k.After(0, poll)
			mt.MCLoop(&Loop{Name: "acr", Outer: 1, Inner: 64, SerialCycles: 2 * work,
				Body: func(ec *ExecCtx, i int) {
					ec.Compute(work)
					ec.Global(region, int64(i*16), 16)
				}})
			finished = true
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !failed || !checked || lock == nil {
			t.Fatalf("victim never reached its region (failed %v, checked %v)", failed, checked)
		}
		if !finished {
			t.Fatal("the cluster job never completed")
		}
		// Every iteration's region took the lock, the one cut short
		// included, and the lock ended free: the dead CE's hold passed
		// to the next waiter.
		if lock.Acquires() != 64 || lock.Contended() == 0 || lock.InUse() != 0 {
			t.Fatalf("doacross lock: %d acquires (%d contended), %d in use; want 64, some contended, 0",
				lock.Acquires(), lock.Contended(), lock.InUse())
		}
	})
}
