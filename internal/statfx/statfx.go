// Package statfx models the statfx software monitor the paper uses to
// measure average concurrency: "this monitor measures the concurrency
// on each cluster; for the multi-cluster Cedar configurations, the
// values provided ... are the sum of the concurrency values on the
// different clusters" (Section 3.1).
//
// Two measures are provided:
//
//   - Sampler periodically counts the CEs that are actively working
//     (executing user code, stalled on memory, or dispatching
//     iterations — but not spinning for work or barriers, not in the
//     OS, and not idle), the way a software monitor samples the real
//     machine. It is the simulator's one periodic monitor: on an
//     observed run the same tick also appends a row to the series
//     ring (obs.Collector).
//   - Exact integrates the same quantity from the per-CE accounts,
//     which the simulation can do without sampling error.
package statfx

import (
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Sampler periodically samples per-cluster concurrency.
type Sampler struct {
	m        *cluster.Machine
	interval sim.Duration
	series   *obs.Collector // nil unless the run is observed
	stopped  bool

	samples uint64
	sums    []uint64 // per cluster: total active CEs over all samples
}

// NewSampler creates a sampler with the given sampling interval and
// starts it. Each tick also appends one row to series when it is not
// nil.
func NewSampler(m *cluster.Machine, interval sim.Duration, series *obs.Collector) *Sampler {
	s := &Sampler{
		m:        m,
		interval: interval,
		series:   series,
		sums:     make([]uint64, len(m.Clusters)),
	}
	s.schedule()
	return s
}

func (s *Sampler) schedule() {
	s.m.Kernel.After(s.interval, func() {
		if s.stopped {
			return
		}
		s.samples++
		// One dense scan per cluster over the machine's flat busy
		// array — the sampler fires every interval for the whole run,
		// so it must not pointer-chase per-CE objects.
		for ci := range s.sums {
			s.sums[ci] += uint64(s.m.ClusterActiveCEs(ci))
		}
		s.series.Sample(s.m.Kernel.Now())
		s.schedule()
	})
}

// Stop ends sampling, the series rows included. Idempotent.
func (s *Sampler) Stop() { s.stopped = true }

// Samples returns the number of samples taken.
func (s *Sampler) Samples() uint64 { return s.samples }

// ClusterConcurrency returns the sampled average concurrency of
// cluster c.
func (s *Sampler) ClusterConcurrency(c int) float64 {
	if s.samples == 0 {
		return 0
	}
	return float64(s.sums[c]) / float64(s.samples)
}

// MachineConcurrency returns the sum of the per-cluster sampled
// concurrencies — the quantity Table 1 reports.
func (s *Sampler) MachineConcurrency() float64 {
	total := 0.0
	for c := range s.sums {
		total += s.ClusterConcurrency(c)
	}
	return total
}

// Exact returns the account-integrated average concurrency per cluster
// over the completion time ct: sum over the cluster's CEs of active
// time, divided by ct.
func Exact(m *cluster.Machine, ct sim.Time) []float64 {
	out := make([]float64, len(m.Clusters))
	if ct <= 0 {
		return out
	}
	for ci, cl := range m.Clusters {
		var active sim.Duration
		for _, ce := range cl.CEs {
			active += ce.Acct.ActiveTotal()
		}
		out[ci] = float64(active) / float64(ct)
	}
	return out
}

// ExactMachine returns the sum of Exact over clusters.
func ExactMachine(m *cluster.Machine, ct sim.Time) float64 {
	total := 0.0
	for _, v := range Exact(m, ct) {
		total += v
	}
	return total
}
