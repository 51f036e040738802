// Package core implements the paper's contribution: the
// measurement-based overhead-decomposition methodology. Given
// instrumented runs (per-CE time accounts, the OS activity breakdown,
// per-cluster loop wall times, and concurrency measures), it produces
// every quantity the paper's evaluation reports:
//
//   - Table 1: completion times, speedups, average concurrency;
//   - Figure 3: the user/system/interrupt/spin completion-time
//     breakdown per configuration;
//   - Table 2: the detailed OS activity characterization;
//   - Figures 4–9: the user-time breakdown into serial, main-cluster
//     loops, iteration execution, and the four parallelization
//     overheads (loop setup, iteration pickup, barrier wait, helper
//     wait), for main and helper tasks;
//   - Table 3: average parallel loop concurrency, solved from the
//     paper's equation (1-pf) + pf*par_concurr = avg_concurr;
//   - Table 4: the global memory and network contention overhead,
//     estimated as Ov_cont = (T_p_actual - T_p_ideal) / CT.
package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cfrt"
	"repro/internal/gmem"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/statfx"
)

// Result is everything the analysis needs from one instrumented run
// of one application on one configuration.
type Result struct {
	App   string
	Cfg   arch.Config
	Scale float64 // paper seconds per simulated second (timestep scaling)

	CT sim.Time // completion time in cycles

	// Per-CE accounts, machine order.
	Accounts []*metrics.Account
	// Detailed OS activity breakdown (Table 2 raw material).
	OS metrics.OSBreakdown
	// Per-cluster wall time inside cross-cluster s(x)doall loops and
	// (cluster 0 only) main-cluster-only loops.
	SXWall []sim.Duration
	MCWall []sim.Duration
	// Per-cluster average concurrency, integrated from accounts.
	Concurrency []float64
	// Machine concurrency as sampled by the statfx monitor (may
	// differ slightly from the exact integral).
	SampledConcurrency float64
	// Runtime event counters.
	RT cfrt.Stats
	// Global memory traffic and queueing statistics.
	GM gmem.Stats
	// FailedCEs counts processors fail-stopped by fault injection
	// (zero on a healthy run).
	FailedCEs int
}

// Collect assembles a Result from a finished run.
func Collect(app string, scale float64, rt *cfrt.Runtime, sampler *statfx.Sampler) *Result {
	m := rt.M
	ct := rt.CT()
	r := &Result{
		App:       app,
		Cfg:       m.Cfg,
		Scale:     scale,
		CT:        ct,
		Accounts:  m.Accounts(),
		OS:        *rt.OS.Brk,
		RT:        rt.Statistics(),
		GM:        m.GM.Stats(),
		FailedCEs: m.FailedCEs(),
	}
	for c := range m.Clusters {
		r.SXWall = append(r.SXWall, rt.ClusterSXWall(c))
		r.MCWall = append(r.MCWall, rt.ClusterMCWall(c))
	}
	r.Concurrency = statfx.Exact(m, ct)
	r.SampledConcurrency = sampler.MachineConcurrency()
	return r
}

// Seconds converts a cycle count of this run to paper-scale seconds.
func (r *Result) Seconds(cycles sim.Duration) float64 {
	return arch.Seconds(int64(cycles)) * r.Scale
}

// CTSeconds returns the completion time in paper-scale seconds.
func (r *Result) CTSeconds() float64 { return r.Seconds(r.CT) }

// MachineConcurrency returns the Table-1 concurrency value: the sum of
// the per-cluster averages.
func (r *Result) MachineConcurrency() float64 {
	total := 0.0
	for _, v := range r.Concurrency {
		total += v
	}
	return total
}

// Speedup returns base.CT / r.CT — the Table-1 speedup of r over the
// base (1-processor) run.
func (r *Result) Speedup(base *Result) float64 {
	if r.CT == 0 {
		return 0
	}
	return float64(base.CT) / float64(r.CT)
}

// Breakdown is the Figure-3 view of one cluster task (or of the whole
// machine): fractions of completion time, as "Q", the software
// measurement facility of the paper's Section 5, reports them.
//
// User time follows the paper's definition: it "includes the actual
// busy time, stall times due to global memory accesses or cache
// refills, the time spent spinning on user-level synchronization locks
// or waiting at the barriers" — i.e. runtime-library spinning is user
// time here, and is only separated out by the Section-6 breakdown.
type Breakdown struct {
	User      float64
	System    float64
	Interrupt float64
	Spin      float64 // kernel lock spin
	Idle      float64
}

// OSShare returns the total operating-system share (system + interrupt
// + spin), the quantity the paper tracks as "5-21% of the completion
// time".
func (b Breakdown) OSShare() float64 { return b.System + b.Interrupt + b.Spin }

// forAccount computes the breakdown of a single CE's account over
// completion time ct.
func forAccount(a *metrics.Account, ct sim.Time) Breakdown {
	if ct <= 0 {
		return Breakdown{}
	}
	f := func(d sim.Duration) float64 { return float64(d) / float64(ct) }
	b := Breakdown{
		User:      f(a.UserTotal()),
		System:    f(a.Get(metrics.CatOSSystem)),
		Interrupt: f(a.Get(metrics.CatOSInterrupt)),
		Spin:      f(a.Get(metrics.CatOSSpin)),
	}
	b.Idle = 1 - b.User - b.System - b.Interrupt - b.Spin
	if b.Idle < 0 {
		b.Idle = 0
	}
	return b
}

// ClusterBreakdown returns the Figure-3 view for cluster c's task
// (the cluster lead CE's timeline).
func (r *Result) ClusterBreakdown(c int) Breakdown {
	lead := c * r.Cfg.CEsPerCluster
	return forAccount(r.Accounts[lead], r.CT)
}

// OSShare returns the machine-average operating system share of the
// completion time (system + interrupt + spin), the headline Section-5
// number.
func (r *Result) OSShare() float64 {
	var sum float64
	for _, a := range r.Accounts {
		sum += forAccount(a, r.CT).OSShare()
	}
	return sum / float64(len(r.Accounts))
}

// OSDetailRow is one row of Table 2: an OS activity's contribution in
// paper-scale seconds (machine average per CE) and as a percentage of
// the completion time.
type OSDetailRow struct {
	Category metrics.OSCategory
	Seconds  float64
	Percent  float64
	Count    uint64
}

// OSDetail returns the Table-2 rows. Times are averaged over the
// machine's CEs, matching the per-task accounting the paper reports.
func (r *Result) OSDetail() []OSDetailRow {
	rows := make([]OSDetailRow, 0, metrics.NumOSCategories)
	nce := float64(r.Cfg.CEs())
	for c := metrics.OSCategory(0); c < metrics.NumOSCategories; c++ {
		perCE := sim.Duration(float64(r.OS.Time[c]) / nce)
		sec := r.Seconds(perCE)
		pct := 0.0
		if r.CT > 0 {
			pct = float64(perCE) / float64(r.CT) * 100
		}
		rows = append(rows, OSDetailRow{Category: c, Seconds: sec, Percent: pct, Count: r.OS.Count[c]})
	}
	return rows
}

// TaskBreakdown is the Figures 4–9 view of one cluster task: fractions
// of the completion time, from the task timeline (cluster lead CE).
// Below-the-line quantities: Serial, MCLoop, Iter (+ the stall
// components folded into whichever user work incurred them).
// Above-the-line parallelization overheads: Setup, Pick, Barrier,
// HelperWait.
type TaskBreakdown struct {
	Cluster int
	IsMain  bool

	UserSeconds float64 // total user time of the task, paper seconds

	Serial     float64
	MCLoop     float64
	Iter       float64 // s(x)doall iteration execution incl. stalls
	Setup      float64
	Pick       float64
	Barrier    float64
	HelperWait float64
}

// OverheadFraction returns the parallelization-overhead share (above
// the line): setup + pick + barrier + helper wait.
func (t TaskBreakdown) OverheadFraction() float64 {
	return t.Setup + t.Pick + t.Barrier + t.HelperWait
}

// Task returns the user-time breakdown for cluster c's task.
func (r *Result) Task(c int) TaskBreakdown {
	lead := r.Accounts[c*r.Cfg.CEsPerCluster]
	f := func(cat metrics.Category) float64 {
		if r.CT == 0 {
			return 0
		}
		return float64(lead.Get(cat)) / float64(r.CT)
	}
	// Stall time is charged while executing user work; fold it into
	// the iteration-execution share as the paper does (its user time
	// "includes the actual busy time, stall times due to global memory
	// accesses or cache refills").
	return TaskBreakdown{
		Cluster:     c,
		IsMain:      c == 0,
		UserSeconds: r.Seconds(lead.UserTotal()),
		Serial:      f(metrics.CatSerial),
		MCLoop:      f(metrics.CatMCLoop),
		Iter:        f(metrics.CatLoopIter) + f(metrics.CatGMStall) + f(metrics.CatCacheStall),
		Setup:       f(metrics.CatLoopSetup),
		Pick:        f(metrics.CatPickIter),
		Barrier:     f(metrics.CatBarrierWait),
		HelperWait:  f(metrics.CatHelperWait),
	}
}

// Tasks returns the breakdown for every cluster task.
func (r *Result) Tasks() []TaskBreakdown {
	out := make([]TaskBreakdown, r.Cfg.Clusters)
	for c := range out {
		out[c] = r.Task(c)
	}
	return out
}

// ParallelFraction returns pf for cluster c: the fraction of the
// completion time spent on parallel loop execution on that cluster.
// For the main cluster task, pf includes the main-cluster-only loops
// (Section 7).
func (r *Result) ParallelFraction(c int) float64 {
	if r.CT == 0 {
		return 0
	}
	wall := r.SXWall[c]
	if c == 0 {
		wall += r.MCWall[c]
	}
	pf := float64(wall) / float64(r.CT)
	if pf > 1 {
		pf = 1
	}
	return pf
}

// ParallelLoopConcurrency solves the paper's equation
//
//	(1 - pf) + pf*par_concurr = avg_concurr
//
// for each cluster, yielding the Table-3 values. Results are clamped
// to [1, CEs/cluster] (the physically meaningful range).
func (r *Result) ParallelLoopConcurrency() []float64 {
	out := make([]float64, r.Cfg.Clusters)
	for c := range out {
		pf := r.ParallelFraction(c)
		avg := r.Concurrency[c]
		if pf <= 0 {
			out[c] = 1
			continue
		}
		pc := (avg - 1 + pf) / pf
		if pc < 1 {
			pc = 1
		}
		if max := float64(r.Cfg.CEsPerCluster); pc > max {
			pc = max
		}
		out[c] = pc
	}
	return out
}

// Contention is one cell-group of Table 4.
type Contention struct {
	TpActual sim.Duration // actual parallel loop execution time
	TpIdeal  sim.Duration // ideal (zero-contention) estimate
	OvCont   float64      // percent of CT attributable to contention
}

// TpActualSeconds returns T_p_actual in paper seconds (needs the run
// for scale).
func (r *Result) tpActual() sim.Duration { return r.SXWall[0] + r.MCWall[0] }

// ContentionOverhead applies the Section-7 methodology: the run on the
// 1-processor configuration supplies the minimum possible total
// processing time for the loop code (T1_mc, T1_sx); dividing by the
// average parallel loop concurrency yields T_p_ideal; the excess of
// the measured T_p_actual over it, normalized by CT, is the overhead
// attributable to global memory and network contention.
func ContentionOverhead(base, r *Result) (Contention, error) {
	if base.Cfg.CEs() != 1 {
		return Contention{}, fmt.Errorf("core: contention base must be the 1-processor run, got %s", base.Cfg.Name)
	}
	if base.App != r.App {
		return Contention{}, fmt.Errorf("core: contention base app %q != run app %q", base.App, r.App)
	}
	t1mc := float64(base.MCWall[0])
	t1sx := float64(base.SXWall[0])
	pc := r.ParallelLoopConcurrency()

	var ideal float64
	if r.Cfg.Clusters == 1 {
		ideal = (t1mc + t1sx) / pc[0]
	} else {
		total := 0.0
		for _, v := range pc {
			total += v
		}
		ideal = t1mc/pc[0] + t1sx/total
	}
	c := Contention{
		TpActual: r.tpActual(),
		TpIdeal:  sim.Duration(ideal),
	}
	if r.CT > 0 {
		c.OvCont = (float64(c.TpActual) - ideal) / float64(r.CT) * 100
	}
	return c, nil
}

// TotalOverheadShare returns the headline conclusion number: the share
// of CT attributable to OS overhead, parallelization overhead (main
// task), and contention together ("the various overheads contribute as
// much as 30-50% of the completion time").
func TotalOverheadShare(base, r *Result) float64 {
	cont, err := ContentionOverhead(base, r)
	if err != nil {
		return 0
	}
	return r.OSShare() + r.Task(0).OverheadFraction() + cont.OvCont/100
}
