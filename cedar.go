// Package cedar is the public facade of the Cedar overhead-
// characterization reproduction (Natarajan, Sharma, Iyer — ISCA 1994).
//
// One call simulates an application on a Cedar configuration with full
// instrumentation and returns the analysis-ready result:
//
//	res := cedar.Simulate(perfect.FLO52(), arch.Cedar32, cedar.Options{})
//	fmt.Println(res.OSShare(), res.Task(0).OverheadFraction())
//
// Sweeps runs applications across the paper's five configurations and
// normalizes reported seconds so the 1-processor completion time
// matches the paper's Table 1 (the calibration policy in DESIGN.md);
// every multiprocessor quantity is model output.
package cedar

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/arch"
	"repro/internal/cfrt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/sim"
	"repro/internal/statfx"
	"repro/internal/xylem"
)

// Options tune a simulation run.
type Options struct {
	// Steps overrides the app's timestep count when > 0 (smaller is
	// faster; overhead fractions are step-count invariant).
	Steps int
	// Seed overrides the deterministic seed derived from the app and
	// configuration when non-zero.
	Seed int64
	// SamplerInterval is the period in cycles of the statfx sampler,
	// the run's one periodic monitor: it samples concurrency and, on
	// an observed run, the series rows. Zero uses the default, 10,000
	// cycles (0.5 ms); negative is an error.
	SamplerInterval sim.Duration
	// TraceCapacity arms the cedarhpm monitor with a trace buffer of
	// the given capacity in records when > 0. The monitor is the run's
	// one event stream: the runtime library, Xylem, the global-memory
	// stall trigger points, and the fault injector all post to it, and
	// Run.TraceBundle folds it into spans.
	TraceCapacity int
	// TreeFanout, when > 1, uses the software combining-tree barrier
	// (paper reference [16]) instead of the flat busy-wait barrier on
	// unclustered configurations.
	TreeFanout int
	// XdoallChunk, when > 1, claims chunks of XDOALL iterations per
	// global-lock pickup, amortizing the distribution overhead.
	XdoallChunk int
	// Faults is a plan of hardware/OS faults to inject at their
	// virtual times (degraded-mode simulation). Validated against the
	// configuration before the run starts.
	Faults faults.Plan
	// MaxCycles aborts the simulation with sim.ErrCycleBudget when
	// virtual time would pass it (0: unlimited). A guard rail for
	// fault plans that slow the machine pathologically.
	MaxCycles sim.Time
	// Observe arms the time-series ring: every statfx tick appends
	// concurrency, the Figure-3 user/system/interrupt/spin split, and
	// memory/network backlog to Run.Series. False leaves it off (the
	// zero-cost path). Spans come from the monitor (TraceCapacity), not
	// from Observe.
	Observe bool
	// Parallel bounds how many independent simulations Sweeps runs
	// concurrently. Zero uses GOMAXPROCS; 1 forces the sequential
	// path. Parallelism is wall-clock only: every simulation owns its
	// kernel and deterministic seed, and results are assembled in input
	// order, so sweep output is byte-identical at any setting (see
	// internal/engine).
	Parallel int

	// cancelFrom is the context SimulateRunCtx threads into the
	// kernel's interrupt check. Unexported: plain Simulate paths never
	// pay for it.
	cancelFrom context.Context
}

// defaultSamplerInterval is the statfx sampling period when
// Options.SamplerInterval is zero: 0.5 ms of virtual time.
const defaultSamplerInterval = 10_000

// defaultWatchdog is how often, in cycles (0.5 s of virtual time), the
// kernel checks for a wedged simulation — every live process blocked,
// no progress — and stops it with sim.ErrDeadlock.
const defaultWatchdog = 10_000_000

// KernelSeed is the simulation kernel's RNG seed for app on cfg: Seed
// when set, otherwise a hash of the app and configuration names. A
// recorded scenario carries the resolved value, so it keeps
// reproducing the run even if this derivation changes.
func (o Options) KernelSeed(app perfect.App, cfg arch.Config) int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(app.Name))
	h.Write([]byte(cfg.Name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Run is a Simulate result plus the live simulation objects, for
// callers (tools, tests) that want to inspect traces or hardware
// statistics beyond the analysis result.
type Run struct {
	Result   *core.Result
	Machine  *cluster.Machine
	OS       *xylem.OS
	RT       *cfrt.Runtime
	Monitor  *hpm.Monitor     // nil unless Options.TraceCapacity > 0
	Injector *faults.Injector // nil unless Options.Faults was set
	Series   *obs.Collector   // nil unless Options.Observe was set

	// reg is the run's metric registry: pre-seeded with the live series
	// probes when the run was observed, completed lazily with the
	// result metrics by Metrics().
	reg     *metricreg.Registry
	regOnce sync.Once
}

// Simulate runs one application on one configuration and returns the
// analysis result. The result's Scale is 1 (raw simulated seconds);
// Sweeps sets the paper normalization. It panics on invalid input or a
// failed simulation; SimulateRunErr is the error-returning form.
func Simulate(app perfect.App, cfg arch.Config, opts Options) *core.Result {
	run, err := SimulateRunErr(app, cfg, opts)
	if err != nil {
		panic(err)
	}
	return run.Result
}

// SimulateRunErr runs one application on one configuration, applying
// any fault plan in the options, and returns the live simulation
// objects alongside the analysis result. Simulation failures are
// returned as errors; when the simulation itself ran but ended
// abnormally (deadlock, cycle budget), the Run is returned too, with
// accounting collected up to the failure point.
func SimulateRunErr(app perfect.App, cfg arch.Config, opts Options) (*Run, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(cfg); err != nil {
		return nil, err
	}
	if opts.SamplerInterval < 0 {
		return nil, fmt.Errorf("cedar: Options.SamplerInterval %d is negative", opts.SamplerInterval)
	}
	if opts.Steps > 0 {
		app = app.WithSteps(opts.Steps)
	}
	k := sim.NewKernel(opts.KernelSeed(app, cfg))
	if opts.MaxCycles > 0 {
		k.SetMaxCycles(opts.MaxCycles)
	}
	if ctx := opts.cancelFrom; ctx != nil {
		if done := ctx.Done(); done != nil {
			k.SetInterrupt(interruptEvery, func() error {
				select {
				case <-done:
					return ctx.Err()
				default:
					return nil
				}
			})
		}
	}
	k.SetWatchdog(defaultWatchdog)
	m := cluster.NewMachine(k, cfg, arch.DefaultCosts())
	o := xylem.New(m)

	if opts.TraceCapacity > 0 {
		m.Mon = hpm.New(k, opts.TraceCapacity)
	}

	var series *obs.Collector
	var liveReg *metricreg.Registry
	if opts.Observe {
		liveReg = metricreg.New()
		registerProbes(liveReg, m)
		// The series rows read the registry's live scalar metrics: one
		// registration feeds the time series and every exporter alike,
		// in registration order (the series CSV column order).
		series = obs.NewCollector(liveReg.ScalarReaders())
	}

	rt := cfrt.New(m, o)
	rt.TreeFanout = opts.TreeFanout
	rt.XdoallChunk = opts.XdoallChunk

	var inj *faults.Injector
	if len(opts.Faults) > 0 {
		inj = &faults.Injector{M: m, OS: o, OnCEFail: rt.NotifyCEFailure}
		inj.Arm(opts.Faults)
	}

	interval := opts.SamplerInterval
	if interval == 0 {
		interval = defaultSamplerInterval
	}
	sampler := statfx.NewSampler(m, interval, series)
	rt.OnFinish = sampler.Stop

	region := o.NewRegion(app.Name+".data", app.DataWords)
	_, err := rt.RunErr(app.Program(region))
	sampler.Stop() // idempotent; error paths never reached OnFinish

	res := core.Collect(app.Name, 1, rt, sampler)
	run := &Run{Result: res, Machine: m, OS: o, RT: rt, Monitor: m.Mon, Injector: inj,
		Series: series, reg: liveReg}
	return run, err
}

// registerProbes registers the standard live probes as registry gauge
// functions: machine and per-cluster concurrency (the statfx signal),
// the Figure-3 user/system/interrupt/spin split as CE counts,
// global-memory module utilization and backlog, network port backlog
// (the hot-spot signal), and simulation liveness counters. Each reads
// the machine at the kernel's current virtual time, so the statfx tick
// samples them into the series ring, and the same registration also
// puts them in every exporter.
func registerProbes(reg *metricreg.Registry, m *cluster.Machine) {
	now := m.Kernel.Now
	countCEs := func(pred func(*cluster.CE) bool) float64 {
		n := 0.0
		for _, ce := range m.AllCEs() {
			if pred(ce) {
				n++
			}
		}
		return n
	}
	reg.GaugeFunc("concurrency", "CEs active at the sampling instant", "ces", func() float64 {
		return float64(m.ActiveCEs())
	})
	for ci := range m.Clusters {
		ci := ci
		reg.GaugeFunc(fmt.Sprintf("concurrency_c%d", ci),
			fmt.Sprintf("CEs of cluster %d active at the sampling instant", ci), "ces",
			func() float64 {
				return float64(m.ClusterActiveCEs(ci))
			})
	}
	// The Figure-3 split, sampled as how many CEs are in each
	// execution mode at the instant (user/system/interrupt/spin).
	reg.GaugeFunc("ces_user", "CEs executing user code", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy().IsUser() })
	})
	reg.GaugeFunc("ces_system", "CEs executing OS system code", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy() == metrics.CatOSSystem })
	})
	reg.GaugeFunc("ces_interrupt", "CEs servicing interrupts", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy() == metrics.CatOSInterrupt })
	})
	reg.GaugeFunc("ces_spin", "CEs spinning on OS locks", "ces", func() float64 {
		return countCEs(func(ce *cluster.CE) bool { return ce.Busy() == metrics.CatOSSpin })
	})
	reg.GaugeFunc("gm_module_util_mean", "mean global-memory module utilization", "fraction", func() float64 {
		mean, _ := m.GM.UtilizationSummary(now())
		return mean
	})
	reg.GaugeFunc("gm_module_util_max", "utilization of the hottest global-memory module", "fraction", func() float64 {
		_, max := m.GM.UtilizationSummary(now())
		return max
	})
	reg.GaugeFunc("gm_backlog_cycles", "queued work across global-memory modules", "cycles", func() float64 {
		return float64(m.GM.ModuleBacklog(now()))
	})
	reg.CounterFunc("gm_accesses", "global-memory accesses issued", "accesses", func() float64 {
		return float64(m.GM.Accesses())
	})
	reg.GaugeFunc("net_backlog_cycles", "queued work across network ports", "cycles", func() float64 {
		return float64(m.GM.Net().Backlog(now()))
	})
	reg.CounterFunc("net_delay_cycles", "cumulative network queueing delay", "cycles", func() float64 {
		return float64(m.GM.Net().Stats().DelayTotal)
	})
	reg.GaugeFunc("live_procs", "live kernel processes", "procs", func() float64 {
		return float64(m.Kernel.LiveProcs())
	})
	reg.GaugeFunc("failed_ces", "CEs fail-stopped so far", "ces", func() float64 {
		return float64(m.FailedCEs())
	})
}

// TraceBundle folds the run's hpm event trace into one exportable
// bundle for obs.WriteTrace: runtime structure (serial sections,
// loops, iterations, barriers), OS service, page-fault and memory
// stall spans, plus the fault activations from the injector's log. A
// run without the monitor (Options.TraceCapacity) yields fault marks
// only.
func (r *Run) TraceBundle() *obs.Bundle {
	b := &obs.Bundle{
		App:           r.Result.App,
		Config:        r.Machine.Cfg.Name,
		CEs:           r.Machine.Cfg.CEs(),
		CEsPerCluster: r.Machine.Cfg.CEsPerCluster,
		CT:            r.Result.CT,
	}
	spans, insts := obs.FoldTrace(r.Monitor.Trace(), r.RT)
	if r.Injector != nil {
		fs, fi := obs.FoldFaults(r.Injector.Applied())
		spans = append(spans, fs...)
		insts = append(insts, fi...)
	}
	obs.SortSpans(spans)
	b.Spans = obs.ClampSpans(spans, r.Result.CT)
	b.Instants = insts
	return b
}

// Sweeps runs each application across the paper's five configurations
// through one worker pool: the application × configuration grid is
// flattened into independent jobs, so a 4-worker pool stays busy even
// while one application's slowest configuration trails. Results are
// assembled in application order, every one identical to a sequential
// run's. Each sweep normalizes seconds so its 1-processor completion
// time matches the paper's (when the app is one of the five; synthetic
// apps keep Scale 1).
func Sweeps(apps []perfect.App, opts Options) []*core.Sweep {
	cfgs := arch.PaperConfigs()
	type job struct {
		app int
		cfg arch.Config
	}
	jobs := make([]job, 0, len(apps)*len(cfgs))
	for a := range apps {
		for _, cfg := range cfgs {
			jobs = append(jobs, job{app: a, cfg: cfg})
		}
	}
	results := engine.Map(opts.Parallel, jobs, func(_ int, j job) *core.Result {
		return Simulate(apps[j.app], j.cfg, opts)
	})
	out := make([]*core.Sweep, len(apps))
	for a, app := range apps {
		out[a] = &core.Sweep{App: app.Name, Results: map[int]*core.Result{}}
	}
	for i, j := range jobs {
		out[j.app].Results[j.cfg.CEs()] = results[i]
	}
	for _, s := range out {
		normalize(s)
	}
	return out
}

// normalize sets every result's Scale so that the sweep's 1-processor
// CT in seconds equals the paper's published CT1.
func normalize(s *core.Sweep) {
	base := s.Base()
	if base == nil {
		return
	}
	paper := perfect.PaperCT1(s.App)
	if paper <= 0 {
		return
	}
	raw := arch.Seconds(int64(base.CT))
	if raw <= 0 {
		return
	}
	scale := paper / raw
	for _, r := range s.Results {
		r.Scale = scale
	}
}
