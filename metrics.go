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
// event counts, and the drop/overflow counters of each bounded buffer.
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

	cc := reg.Univariate("concurrency_cluster",
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
