package cedar

import (
	"repro/internal/hpm"
	"repro/internal/metricreg"
	"repro/internal/metrics"
)

// Metrics returns the run's metric registry — the central directory
// (internal/metricreg) every exporter renders from. When the run was
// observed (Options.Observe), the registry already holds the live
// series probes; the first call adds the post-run result metrics:
// completion time, fault classification counters, exact and sampled
// concurrency, the Table-2 OS breakdown as a univariate distribution,
// every CE's per-category account as a bivariate distribution, the hpm
// event counts, the drop/overflow counters of each bounded buffer, and
// the hardware counters (populateHardware). It is the one path a run's
// numbers are exported through.
//
// The registry is built lazily so an unobserved Simulate pays nothing
// for it; StatfxText renders from the same registry, which is what
// makes the accounting block and the metric exporters structurally
// consistent.
func (r *Run) Metrics() *metricreg.Registry {
	r.regOnce.Do(func() {
		if r.reg == nil {
			r.reg = metricreg.New()
		}
		r.populateMetrics()
	})
	return r.reg
}

// osAxis keys the OS-breakdown distributions by metrics.OSCategory.
var osAxis = metricreg.Axis{Name: "os_category", Label: func(k int64) string {
	return metrics.OSCategory(k).String()
}}

// categoryAxis keys per-CE accounts by metrics.Category.
var categoryAxis = metricreg.Axis{Name: "category", Label: func(k int64) string {
	return metrics.Category(k).String()
}}

// eventAxis keys hpm event counts by hpm.EventID.
var eventAxis = metricreg.Axis{Name: "event", Label: func(k int64) string {
	return hpm.EventID(k).String()
}}

// populateMetrics registers the result-derived metrics. Every cell of
// the distributions is observed — zeros included — so the snapshot is
// dense: StatfxText and the exporters render complete tables without
// special-casing absent keys.
func (r *Run) populateMetrics() {
	reg, res := r.reg, r.Result

	reg.Gauge("ct_cycles", "completion time of the run", "cycles").Set(float64(res.CT))
	reg.Gauge("result_failed_ces", "processors fail-stopped by fault injection", "ces").
		Set(float64(res.FailedCEs))
	reg.Counter("faults_sequential_total", "page faults serviced sequentially", "faults").
		Add(uint64(r.OS.SeqFaults()))
	reg.Counter("faults_concurrent_total", "page faults serviced concurrently", "faults").
		Add(uint64(r.OS.ConcFaults()))
	reg.Gauge("concurrency_sampled", "machine concurrency sampled by the statfx monitor", "ces").
		Set(res.SampledConcurrency)

	cc := reg.UnivariateLevel("concurrency_cluster",
		"exact per-cluster average concurrency, integrated from accounts", "ces",
		metricreg.Axis{Name: "cluster"})
	for c, v := range res.Concurrency {
		cc.Observe(int64(c), v)
	}

	ot := reg.Univariate("os_time_cycles", "time per OS activity category (Table 2)", "cycles", osAxis)
	oc := reg.Univariate("os_events_total", "occurrences per OS activity category (Table 2)", "events", osAxis)
	for c := metrics.OSCategory(0); c < metrics.NumOSCategories; c++ {
		ot.Observe(int64(c), float64(res.OS.Time[c]))
		oc.Observe(int64(c), float64(res.OS.Count[c]))
	}

	bc := reg.Bivariate("ce_category_cycles", "cycles per CE and accounting category", "cycles",
		metricreg.Axis{Name: "ce"}, categoryAxis)
	for _, a := range res.Accounts {
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			bc.Observe(int64(a.CE()), int64(c), float64(a.Get(c)))
		}
	}

	if r.Monitor != nil {
		ev := reg.Univariate("hpm_events_total", "events posted to the hardware performance monitor", "events", eventAxis)
		for e := hpm.EventID(0); e < hpm.NumEvents; e++ {
			ev.Observe(int64(e), float64(r.Monitor.Count(e)))
		}
		reg.Counter("hpm_trace_dropped_total",
			"hpm events dropped because the trace buffer was full", "events").
			Add(r.Monitor.Dropped())
	}
	if r.Series != nil {
		reg.Counter("obs_series_samples_total", "time-series samples taken", "samples").
			Add(r.Series.Taken())
		reg.Counter("obs_series_evicted_total",
			"time-series samples evicted from the ring buffer", "samples").
			Add(r.Series.Taken() - uint64(r.Series.Len()))
	}
	r.populateHardware()
}

// populateHardware registers the hardware counters the paper's
// cedarhpm offload carried to the analysis workstation: global-memory
// module utilization, the network port totals and the hottest port,
// the per-cluster shared caches, and — when the monitor was armed —
// the trace size and the barrier and helper-wait time per CE.
func (r *Run) populateHardware() {
	reg, m, ct := r.reg, r.Machine, r.Result.CT

	mu := reg.UnivariateLevel("gm_module_utilization", "busy fraction of each global-memory module over CT",
		"fraction", metricreg.Axis{Name: "module"})
	for i, u := range m.GM.ModuleUtilization(ct) {
		mu.Observe(int64(i), u)
	}

	net := m.GM.Net()
	st := net.Stats()
	reg.Counter("net_reservations_total", "network port reservations", "reservations").Add(st.Reservations)
	reg.Counter("net_delayed_total", "network port reservations that queued", "reservations").Add(st.Delayed)
	// An observed run registered this live probe already; this is then a
	// no-op.
	reg.CounterFunc("net_delay_cycles", "cumulative network queueing delay", "cycles", func() float64 {
		return float64(net.Stats().DelayTotal)
	})
	port, delay := net.MaxPortDelay()
	hp := reg.Univariate("net_hottest_port_delay_cycles", "queueing delay on the most delayed network port",
		"cycles", metricreg.Axis{Name: "port", Label: func(int64) string { return port }})
	if delay > 0 {
		hp.Observe(0, float64(delay))
	}

	byCluster := metricreg.Axis{Name: "cluster"}
	hits := reg.Univariate("cache_hits_total", "shared-cache hits per cluster", "accesses", byCluster)
	misses := reg.Univariate("cache_misses_total", "shared-cache misses per cluster", "accesses", byCluster)
	queued := reg.Univariate("cache_queued_cycles", "time queued for the shared cache per cluster", "cycles", byCluster)
	for c, cl := range m.Clusters {
		hits.Observe(int64(c), float64(cl.Cache.Hits()))
		misses.Observe(int64(c), float64(cl.Cache.Misses()))
		queued.Observe(int64(c), float64(cl.Cache.QueuedTotal()))
	}

	if r.Monitor == nil {
		return
	}
	trace := r.Monitor.Trace()
	reg.Counter("hpm_trace_records_total", "records held in the hpm trace buffer", "records").
		Add(uint64(len(trace)))
	byCE := metricreg.Axis{Name: "ce"}
	barrier := hpm.PairDurations(trace, hpm.EvBarrierEnter, hpm.EvBarrierExit)
	wait := hpm.PairDurations(trace, hpm.EvWaitStart, hpm.EvWaitEnd)
	bc := reg.Univariate("hpm_barrier_cycles", "time between barrier enter and exit per CE, from the hpm trace", "cycles", byCE)
	wc := reg.Univariate("hpm_helper_wait_cycles", "time helpers waited for work per CE, from the hpm trace", "cycles", byCE)
	for i := 0; i < m.Cfg.CEs(); i++ {
		bc.Observe(int64(i), float64(barrier[i]))
		wc.Observe(int64(i), float64(wait[i]))
	}
}

// DroppedEvents sums every drop/overflow counter the run's bounded
// buffers kept: hpm trace drops and series ring evictions. Non-zero means some instrumentation was lost and folds
// over the trace (Figure 4) may be skewed; the CLIs warn on stderr
// when they see it.
func (r *Run) DroppedEvents() uint64 {
	var n uint64
	if r.Monitor != nil {
		n += r.Monitor.Dropped()
	}
	if r.Series != nil {
		n += r.Series.Taken() - uint64(r.Series.Len())
	}
	return n
}
