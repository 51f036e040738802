package cfrt_test

import (
	"fmt"
	"slices"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/cfrt"
	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/perfect"
	_ "repro/internal/perfect/gen"
)

// FuzzChainedJobs runs one whole simulation twice: with each CE's share
// of a cluster job played as one callback chain, as every run plays
// it, and with the chains refused, so that every pickup, body step and
// end-of-job sync holds on the CE's process. The two runs must agree
// on everything but the number of process switches: the StatfxText
// block, EventsFired, every CE's account, the run's error and the
// cedarhpm trace record for record. An input is a gen: workload seed,
// a machine family member of at most 64 CEs, an XDOALL chunk, and a
// fail-stop plan aimed by faults.SweepTimes at the run's page-fault
// windows (none when fail is negative) under a cycle budget. The seed
// corpus is in
// testdata/fuzz/FuzzChainedJobs/.
func FuzzChainedJobs(f *testing.F) {
	var families []arch.Config
	for _, c := range arch.Families() {
		if c.CEs() <= 64 {
			families = append(families, c)
		}
	}
	f.Fuzz(func(t *testing.T, gen int64, family, chunk uint8, fail int64) {
		app, err := (perfect.Resolver{}).Resolve(fmt.Sprintf("gen:seed=%d", gen))
		if err != nil {
			t.Skipf("gen:seed=%d: %v", gen, err)
		}
		cfg := families[int(family)%len(families)]
		opts := cedar.Options{Steps: 1, XdoallChunk: int(chunk % 4), TraceCapacity: 1 << 20}
		if fail >= 0 {
			healthy, err := cedar.SimulateRunErr(app, cfg, opts)
			if err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			windows, err := cedar.FaultWindows(app, cfg, opts)
			if err != nil {
				t.Fatalf("healthy window-discovery run: %v", err)
			}
			// CE 0 leads the main task; killing it deadlocks the
			// machine by design.
			var ces []int
			for ce := 1; ce < cfg.CEs(); ce++ {
				ces = append(ces, ce)
			}
			if plans := faults.SweepTimes(nil, windows, ces, cfg.GMModules, fail, 1); len(plans) > 0 {
				opts.Faults = plans[0]
			}
			// A plan can leave the survivors spinning for good, so the
			// degraded runs stop at ten healthy runs' time. A run that
			// completes sooner still reports the budget when its
			// kernel holds an event beyond it (the watchdog's next
			// check); either way both runs must stop alike.
			opts.MaxCycles = 10 * healthy.RT.CT()
		}
		chained, errC := simulate(t, app, cfg, opts, true)
		onProc, errP := simulate(t, app, cfg, opts, false)
		what := fmt.Sprintf("gen:seed=%d on %s, chunk %d, plan %q", gen, cfg.Name, opts.XdoallChunk, opts.Faults)
		if fmt.Sprint(errC) != fmt.Sprint(errP) {
			t.Fatalf("%s: chained run ended with %v, on the process with %v", what, errC, errP)
		}
		kc, kp := chained.Machine.Kernel, onProc.Machine.Kernel
		if kc.EventsFired() != kp.EventsFired() {
			t.Fatalf("%s: EventsFired %d chained, %d on the process", what, kc.EventsFired(), kp.EventsFired())
		}
		for g, a := range chained.Machine.Accounts() {
			if b := onProc.Machine.Accounts()[g]; *a != *b {
				t.Fatalf("%s: ce%d's account differs:\nchained    %+v\non process %+v", what, g, *a, *b)
			}
		}
		tc, tp := chained.Monitor.Trace(), onProc.Monitor.Trace()
		if chained.Monitor.Dropped() > 0 {
			t.Fatalf("%s: %d trace records dropped", what, chained.Monitor.Dropped())
		}
		if !slices.Equal(tc, tp) {
			i := 0
			for i < min(len(tc), len(tp)) && tc[i] == tp[i] {
				i++
			}
			t.Fatalf("%s: hpm traces diverge at record %d of %d/%d: chained %s, on the process %s",
				what, i, len(tc), len(tp), recordAt(tc, i), recordAt(tp, i))
		}
		if a, b := chained.StatfxText(), onProc.StatfxText(); a != b {
			t.Fatalf("%s: StatfxText differs:\n--- chained ---\n%s--- on the process ---\n%s", what, a, b)
		}
		if kc.Switches() > kp.Switches() {
			t.Errorf("%s: %d switches chained, more than the %d on the process", what, kc.Switches(), kp.Switches())
		}
	})
}

// simulate runs the input with cluster jobs chained or on their
// processes.
func simulate(t *testing.T, app perfect.App, cfg arch.Config, opts cedar.Options, chain bool) (*cedar.Run, error) {
	t.Helper()
	defer cfrt.SetChainJobs(cfrt.SetChainJobs(chain))
	run, err := cedar.SimulateRunErr(app, cfg, opts)
	if run == nil {
		t.Fatalf("%s on %s: %v", app.Name, cfg.Name, err)
	}
	return run, err
}

// recordAt renders trace record i, or "none" past the trace's end.
func recordAt(tr []hpm.Record, i int) string {
	if i >= len(tr) {
		return "none"
	}
	r := tr[i]
	return fmt.Sprintf("{%v ce%d at %d aux %d}", r.Event, r.CE, r.At, r.Aux)
}
