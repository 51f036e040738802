package cedar

import (
	"os"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/perfect"
)

// TestStatfxTextMatchesGolden pins the registry-backed StatfxText to
// the pre-registry captures: porting the accounting block onto the
// metric registry must not move a byte, or every recorded replay
// scenario comparison silently changes meaning.
func TestStatfxTextMatchesGolden(t *testing.T) {
	cases := []struct {
		golden string
		app    string
		plan   string
		cfg    arch.Config
	}{
		{golden: "testdata/golden/statfx_flo52_8p.txt", app: "FLO52", cfg: arch.Cedar8},
		{golden: "testdata/golden/statfx_ocean_8p_fault.txt", app: "OCEAN", plan: "ce:1@76414", cfg: arch.Cedar8},
		// The Scaled64–256 (and three-stage Deep64) captures predate the
		// struct-of-arrays machine state and the calendar-tiered event
		// queue; a drifted byte here means the intra-run fast path
		// changed simulation results, not just simulation speed.
		{golden: "testdata/golden/statfx_flo52_scaled64.txt", app: "FLO52", cfg: arch.Scaled64},
		{golden: "testdata/golden/statfx_ocean_scaled128.txt", app: "OCEAN", cfg: arch.Scaled128},
		{golden: "testdata/golden/statfx_flo52_scaled256.txt", app: "FLO52", cfg: arch.Scaled256},
		{golden: "testdata/golden/statfx_mdg_deep64.txt", app: "MDG", cfg: arch.Deep64},
		// Degraded ports and inflated modules stretch the calendar
		// bookings of the memory walk; Deep64's three stages share each
		// inner-stage port among several modules.
		{golden: "testdata/golden/statfx_flo52_scaled64_degraded.txt", app: "FLO52",
			plan: "port:5x4@0,port:40x2.5@20000,module:9x2@0", cfg: arch.Scaled64},
		{golden: "testdata/golden/statfx_mdg_deep64_degraded.txt", app: "MDG",
			plan: "port:3x4@0,module:100x2@0", cfg: arch.Deep64},
	}
	for _, tc := range cases {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		app, _ := perfect.ByName(tc.app)
		opts := Options{Steps: 2}
		if tc.plan != "" {
			if opts.Faults, err = faults.Parse(tc.plan); err != nil {
				t.Fatal(err)
			}
		}
		got := mustRun(t, app, tc.cfg, opts).StatfxText()
		if got != string(want) {
			t.Fatalf("%s: StatfxText differs from golden:\n%s", tc.golden, got)
		}
	}
}

// TestRunMetricsRegistry: the lazily built registry carries the full
// result decomposition, dense, and agrees with the Result it was built
// from.
func TestRunMetricsRegistry(t *testing.T) {
	app, _ := perfect.ByName("FLO52")
	run := mustRun(t, app, arch.Cedar8, Options{Steps: 2, TraceCapacity: 1 << 14})
	snap := run.Metrics().Snapshot()

	if got := snap.Value("ct_cycles"); got != float64(run.Result.CT) {
		t.Fatalf("ct_cycles = %g, want %d", got, int64(run.Result.CT))
	}
	ot, ok := snap.Get("os_time_cycles")
	if !ok || len(ot.Cells) != int(metrics.NumOSCategories) {
		t.Fatalf("os_time_cycles cells = %d, want %d", len(ot.Cells), metrics.NumOSCategories)
	}
	if ot.Cells[0].Label[0] != metrics.OSCategory(0).String() {
		t.Fatalf("os axis label = %q", ot.Cells[0].Label[0])
	}
	bc, _ := snap.Get("ce_category_cycles")
	wantCells := len(run.Result.Accounts) * int(metrics.NumCategories)
	if len(bc.Cells) != wantCells {
		t.Fatalf("ce_category_cycles cells = %d, want %d", len(bc.Cells), wantCells)
	}
	ev, ok := snap.Get("hpm_events_total")
	if !ok {
		t.Fatal("traced run has no hpm_events_total")
	}
	total := 0.0
	for _, c := range ev.Cells {
		total += c.Value
	}
	if total == 0 {
		t.Fatal("hpm_events_total all zero on a traced run")
	}
	if _, ok := snap.Get("hpm_trace_dropped_total"); !ok {
		t.Fatal("traced run has no hpm_trace_dropped_total")
	}

	// The hardware counters the cedarhpm offload carried.
	m := run.Machine
	mu, _ := snap.Get("gm_module_utilization")
	if len(mu.Cells) != arch.Cedar8.GMModules {
		t.Fatalf("gm_module_utilization cells = %d, want %d", len(mu.Cells), arch.Cedar8.GMModules)
	}
	for i, u := range m.GM.ModuleUtilization(run.Result.CT) {
		if mu.Cells[i].Value != u {
			t.Fatalf("gm_module_utilization{module=%d} = %g, want %g", i, mu.Cells[i].Value, u)
		}
	}
	for _, name := range []string{"cache_hits_total", "cache_misses_total", "cache_queued_cycles"} {
		if c, _ := snap.Get(name); len(c.Cells) != arch.Cedar8.Clusters {
			t.Fatalf("%s cells = %d, want one per cluster (%d)", name, len(c.Cells), arch.Cedar8.Clusters)
		}
	}
	for c, cl := range m.Clusters {
		hits, _ := snap.Get("cache_hits_total")
		if hits.Cells[c].Value != float64(cl.Cache.Hits()) {
			t.Fatalf("cache_hits_total{cluster=%d} = %g, want %d", c, hits.Cells[c].Value, cl.Cache.Hits())
		}
	}
	st := m.GM.Net().Stats()
	if snap.Value("net_reservations_total") != float64(st.Reservations) ||
		snap.Value("net_delayed_total") != float64(st.Delayed) ||
		snap.Value("net_delay_cycles") != float64(st.DelayTotal) {
		t.Fatalf("network totals %g/%g/%g, want %+v", snap.Value("net_reservations_total"),
			snap.Value("net_delayed_total"), snap.Value("net_delay_cycles"), st)
	}
	port, delay := m.GM.Net().MaxPortDelay()
	hp, _ := snap.Get("net_hottest_port_delay_cycles")
	if delay == 0 || len(hp.Cells) != 1 || hp.Cells[0].Label[0] != port || hp.Cells[0].Value != float64(delay) {
		t.Fatalf("hottest port cells %+v, want one %s=%d", hp.Cells, port, delay)
	}
	trace := run.Monitor.Trace()
	if snap.Value("hpm_trace_records_total") != float64(len(trace)) {
		t.Fatalf("hpm_trace_records_total = %g, want %d", snap.Value("hpm_trace_records_total"), len(trace))
	}
	for name, pair := range map[string][2]hpm.EventID{
		"hpm_barrier_cycles":     {hpm.EvBarrierEnter, hpm.EvBarrierExit},
		"hpm_helper_wait_cycles": {hpm.EvWaitStart, hpm.EvWaitEnd},
	} {
		want := hpm.PairDurations(trace, pair[0], pair[1])
		got, _ := snap.Get(name)
		// One cluster has no helpers to wait, but every CE meets barriers.
		if len(got.Cells) != arch.Cedar8.CEs() || name == "hpm_barrier_cycles" && len(want) == 0 {
			t.Fatalf("%s cells = %d for %d CEs (%d with pairs)", name, len(got.Cells), arch.Cedar8.CEs(), len(want))
		}
		for _, c := range got.Cells {
			if c.Value != float64(want[int(c.Key[0])]) {
				t.Fatalf("%s{ce=%d} = %g, want %d", name, c.Key[0], c.Value, want[int(c.Key[0])])
			}
		}
	}

	// The registry renders in every exporter without error.
	var b strings.Builder
	if err := metricreg.WriteProm(&b, snap, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cedar_ct_cycles ") {
		t.Fatalf("prom export missing ct_cycles:\n%s", b.String())
	}
	// Averages and fractions are gauges; accumulations stay counters.
	for name, typ := range map[string]string{
		"concurrency_cluster": "gauge", "gm_module_utilization": "gauge", "os_time_cycles": "counter",
	} {
		if line := "# TYPE cedar_" + name + " " + typ + "\n"; !strings.Contains(b.String(), line) {
			t.Errorf("prom export lacks %q", line)
		}
	}
}

// TestObservedRunSharesRegistryWithSeries: with Observe on, the live
// probes are registry metrics, the collector samples them under the
// same names (column order preserved), and the post-run registry holds
// both the live probes and the result metrics.
func TestObservedRunSharesRegistryWithSeries(t *testing.T) {
	app, _ := perfect.ByName("FLO52")
	run := mustRun(t, app, arch.Cedar8, Options{Steps: 2,
		SamplerInterval: 500, Observe: true})
	names := run.Series.Names()
	if len(names) == 0 || names[0] != "concurrency" {
		t.Fatalf("series names = %v", names)
	}
	snap := run.Metrics().Snapshot()
	for _, n := range names {
		if _, ok := snap.Get(n); !ok {
			t.Fatalf("series probe %q missing from the registry", n)
		}
	}
	if _, ok := snap.Get("os_time_cycles"); !ok {
		t.Fatal("observed run registry missing result metrics")
	}
	if _, ok := snap.Get("obs_series_samples_total"); !ok {
		t.Fatal("observed run registry missing series drop accounting")
	}
}

// TestDroppedEventsAccounting: a trace buffer too small for the run
// reports its overflow through DroppedEvents and the registry.
func TestDroppedEventsAccounting(t *testing.T) {
	app, _ := perfect.ByName("FLO52")
	run := mustRun(t, app, arch.Cedar8, Options{Steps: 2, TraceCapacity: 8})
	if run.DroppedEvents() == 0 {
		t.Fatal("tiny trace buffer dropped nothing")
	}
	snap := run.Metrics().Snapshot()
	if snap.Value("hpm_trace_dropped_total") != float64(run.Monitor.Dropped()) {
		t.Fatalf("registry drop count %g != monitor %d",
			snap.Value("hpm_trace_dropped_total"), run.Monitor.Dropped())
	}
}
