package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/arch"
)

// workers is the load's parallelism: pool workers, served clients and
// server workers. The load is sized for a 2-CPU host and stays the same
// on larger ones, so captures from different hosts run the same work.
const workers = 2

// A round of set-ups builds the workload over and over for setupBudget
// (quickSetupBudget with -quick), in windows of setupWindow builds.
const (
	setupBudget      = 400 * time.Millisecond
	quickSetupBudget = 20 * time.Millisecond
	setupWindow      = 11
)

// A workload is one fixed set of inputs the benchmark runs. Why each
// was chosen is in BENCHMARK.json and README.md.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
	// probeCfg is the machine the memory and network probes build.
	probeCfg arch.Config
	// fixedWork: every operation simulates the same inputs, so the work
	// counts per operation repeat exactly.
	fixedWork bool
	// procs, when set, is the GOMAXPROCS the workload runs at unless the
	// GOMAXPROCS environment variable sets one.
	procs int
}

var workloads = []workload{
	// One simulation runs one goroutine at a time. A second P only adds
	// cross-CPU wake-ups, whose cost on a small virtual machine swings
	// by a fifth with the host's load; at GOMAXPROCS=1 the run-to-run
	// spread of wall_s fell from about 10% to 5%.
	{name: "bigrun", setup: setupBigrun, probeCfg: arch.Scaled256, fixedWork: true, procs: 1},
	{name: "paper-sweep", setup: setupPaperSweep, probeCfg: arch.Cedar32, fixedWork: true},
	{name: "scenario-suite", setup: setupScenarioSuite, probeCfg: arch.Cedar32, fixedWork: true},
	{name: "served-mix", setup: setupServedMix, probeCfg: arch.Cedar8},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// An instance is a set-up workload.
type instance interface {
	// measure runs operations until ph.deadline, and at least one.
	measure(ctx context.Context, ph *phase)
	// finish runs the untimed checks over everything the phases ran and
	// returns, for each phase, the work its operations did.
	finish(ctx context.Context, phases []*phase) []counts
	// report adds the workload's own metrics. traced is nil in an
	// untraced run.
	report(m metricSet, main, traced *phase)
	close()
}

// env is what a workload run shares across its phases.
type env struct {
	cfg  config
	root string
	tmp  string // scratch directory inside the checkout

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// path resolves a repository-relative path.
func (e *env) path(rel string) string { return filepath.Join(e.root, rel) }

// op records one attempted operation.
func (e *env) op() {
	e.mu.Lock()
	e.attempted++
	e.mu.Unlock()
}

// fail records a failed operation: an error, a non-2xx response, or an
// output that does not match its reference.
func (e *env) fail(format string, a ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failed++
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, a...))
	}
}

// derivedSeed is the kernel seed a nonzero run seed gives one input;
// seed 0 keeps the canonical seeds the goldens were recorded with.
func (e *env) derivedSeed(input string) int64 {
	if e.cfg.seed == 0 {
		return 0
	}
	return hashSeed(e.cfg.seed, input)
}

// hashSeed derives a nonzero kernel seed from its parts.
func hashSeed(parts ...any) int64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v", parts)))
	return int64(binary.LittleEndian.Uint64(sum[:8])>>1) | 1
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// phase collects the samples of one stretch of operations.
type phase struct {
	tr       *tracer // nil: untraced
	deadline time.Time
	lat      []float64 // host seconds per operation
	elapsed  float64   // the rates' denominator (see sequential), or a closed loop's wall time
	sims     int       // simulations delivered
	jobs     []float64 // host seconds of each engine job (traced)
	tails    []float64 // per operation: seconds after its last engine job started (traced)
}

// sequential runs op back to back until the deadline. op returns the
// host time of its timed part and the simulations it delivered; a
// panic or error fails the operation. The rates divide by the median
// operation time times the operation count, so one operation slowed by
// the host moves them no more than it moves wall_s.
func sequential(e *env, ph *phase, op func(i int) (time.Duration, int, error)) {
	for i := 0; i == 0 || time.Now().Before(ph.deadline); i++ {
		e.op()
		d, sims, err := runOp(op, i)
		if err != nil {
			e.fail("op %d: %v", i, err)
			continue
		}
		ph.lat = append(ph.lat, d.Seconds())
		ph.sims += sims
	}
	ph.elapsed = median(ph.lat) * float64(len(ph.lat))
}

// runOp runs one operation, turning a panic (the facade's Simulate and
// Sweeps panic on a failed simulation) into an error.
func runOp(op func(i int) (time.Duration, int, error), i int) (d time.Duration, sims int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return op(i)
}

// runtimeSample reads the Go runtime metrics a phase reports.
type runtimeSample struct {
	sched                 *metrics.Float64Histogram
	allocs, gc, cpu, idle float64
}

var runtimeNames = []string{"/sched/latencies:seconds", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{sched: s[0].Value.Float64Histogram(), allocs: float64(s[1].Value.Uint64()),
		gc: s[2].Value.Float64(), cpu: s[3].Value.Float64(), idle: s[4].Value.Float64()}
}

// schedQuantile is the q-quantile of the scheduling latencies observed
// between two samples, in seconds (the bucket's upper bound).
func schedQuantile(before, after runtimeSample, q float64) float64 {
	h0, h1 := before.sched, after.sched
	total := uint64(0)
	for i := range h1.Counts {
		total += h1.Counts[i] - h0.Counts[i]
	}
	target := uint64(q*float64(total) + 0.5)
	seen := uint64(0)
	for i := range h1.Counts {
		seen += h1.Counts[i] - h0.Counts[i]
		if seen >= target && seen > 0 {
			return h1.Buckets[i+1]
		}
	}
	return 0
}

// runWorkload sets the workload up, measures it, checks its outputs and
// returns its result. It runs inside the child process.
func runWorkload(ctx context.Context, w workload, e *env, h host) *result {
	res := &result{Workload: w.name, Host: h, Traced: e.cfg.trace == 1, Metrics: metricSet{}}
	inst, setup, n, err := setUp(w, e)
	if err != nil {
		e.op()
		e.fail("setup: %v", err)
		return e.finishResult(res)
	}
	warm := &phase{deadline: time.Now()}
	inst.measure(ctx, warm)
	if e.cfg.trace == 0 {
		measureUntraced(ctx, e, inst, res.Metrics, warm)
	} else {
		measureTraced(ctx, e, w, inst, res.Metrics, warm, h)
	}
	inst.close()
	if e.cfg.trace == 0 {
		// A second round once the measured instance is gone, so both
		// rounds start from the same state: with the served mix's service
		// still up after its timed phase, set-up ran a third slower. The
		// faster round counts, so a burst of host load during one round
		// does not move setup_s.
		if again, t, m, err := setUp(w, e); err != nil {
			e.fail("setup: %v", err)
		} else {
			again.close()
			setup, n = math.Min(setup, t), n+m
		}
		res.Metrics.set("setup_s", setup, "s", n)
	}
	return e.finishResult(res)
}

// setUp builds the workload over and over for the round's budget, in
// windows of setupWindow builds bound to one CPU, each CPU in turn, and
// keeps the last instance. It returns the median of the fastest window
// and the number of builds: on a small shared host a CPU's speed swings
// by a third from one second to the next, and one CPU can run much
// slower than the other for minutes, so only the fastest stretch repeats
// from run to run. The heap is collected first, so every round starts
// from the same state.
func setUp(w workload, e *env) (instance, float64, int, error) {
	budget := setupBudget
	if e.cfg.quick {
		budget = quickSetupBudget
	}
	runtime.GC()
	var inst instance
	var err error
	best, n := math.Inf(1), 0
	cpus := allowedCPUs()
	for _, cpu := range cpus {
		onCPU(cpu, func() {
			end := time.Now().Add(budget / time.Duration(len(cpus)))
			for first := true; err == nil && (first || time.Now().Before(end)); first = false {
				times := make([]float64, 0, setupWindow)
				for len(times) < setupWindow && err == nil {
					if inst != nil {
						inst.close()
					}
					start := time.Now()
					inst, err = w.setup(e)
					times = append(times, time.Since(start).Seconds())
				}
				n += len(times)
				best = math.Min(best, median(times))
			}
		})
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return inst, best, n, nil
}

// measureUntraced reports the end-to-end metrics of one timed phase;
// runWorkload adds setup_s.
func measureUntraced(ctx context.Context, e *env, inst instance, m metricSet, warm *phase) {
	ph := &phase{deadline: time.Now().Add(e.duration())}
	inst.measure(ctx, ph)
	work := inst.finish(ctx, []*phase{warm, ph})[1]
	m.set("wall_s", median(ph.lat), "s", len(ph.lat))
	m.set("sims_per_s", ratio(float64(ph.sims), ph.elapsed), "1/s", len(ph.lat))
	m.set("events_per_s", ratio(work.events, ph.elapsed), "1/s", len(ph.lat))
	inst.report(m, ph, nil)
}

func (e *env) duration() time.Duration { return time.Duration(e.cfg.seconds * float64(time.Second)) }

// measureTraced reports the per-layer metrics: an untraced phase gives
// the work counts and Go runtime metrics, a traced phase under the CPU
// profiler gives the spans and the profile, and the probes give each
// layer's unit cost.
func measureTraced(ctx context.Context, e *env, w workload, inst instance, m metricSet, warm *phase, h host) {
	a := &phase{deadline: time.Now().Add(e.duration() / 2)}
	before := readRuntime()
	inst.measure(ctx, a)
	after := readRuntime()

	outDir := e.cfg.out
	if outDir == "" {
		outDir = e.path(".bench_out")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		e.fail("trace output: %v", err)
		return
	}
	profPath := filepath.Join(outDir, w.name+".cpu.pprof")
	stop, err := startProfile(profPath)
	if err != nil {
		e.fail("cpu profile: %v", err)
		return
	}
	tr := newTracer()
	b := &phase{tr: tr, deadline: time.Now().Add(e.duration() / 2)}
	inst.measure(ctx, b)
	if err := stop(); err != nil {
		e.fail("cpu profile: %v", err)
	}

	work := inst.finish(ctx, []*phase{warm, a, b})
	perOp := work[1].scaled(1 / float64(max(len(a.lat), 1)))
	count := func(name string, v float64, unit string) {
		m[name] = metric{Value: v, Unit: unit, N: len(a.lat), Exact: w.fixedWork}
	}
	count("sim.events", perOp.events, "count")
	count("sim.ct_cycles", perOp.ct, "cycles")
	count("gmem.accesses", perOp.accesses, "count")
	count("gmem.words_per_access", ratio(perOp.words, perOp.accesses), "words")
	count("network.reservations", perOp.reservations, "count")
	count("gmem.module_delay_cycles", perOp.moduleDelay, "cycles")
	count("network.delay_cycles", perOp.netDelay, "cycles")
	count("xylem.os_events", perOp.osEvents, "count")
	count("cluster.bad_account_ces", perOp.badAccounts, "count")

	m.set("go.sched_latency_p50_us", schedQuantile(before, after, 0.50)*1e6, "us", 0)
	m.set("go.sched_latency_p99_us", schedQuantile(before, after, 0.99)*1e6, "us", 0)
	m.set("go.alloc_bytes_per_event", ratio(after.allocs-before.allocs, work[1].events), "B", 0)
	m.set("go.gc_cpu_share", ratio(after.gc-before.gc, after.cpu-before.cpu), "share", 0)

	if len(b.jobs) > 0 {
		m.set("engine.busy_share", ratio(sum(b.jobs), workers*sum(b.lat)), "share", len(b.jobs))
		m.set("engine.tail_s", median(b.tails), "s", len(b.tails))
		m.set("engine.job_p50_ms", median(b.jobs)*1e3, "ms", len(b.jobs))
		m.set("engine.job_max_ms", maxOf(b.jobs)*1e3, "ms", len(b.jobs))
	}
	m.set("trace.overhead_share", ratio(median(b.lat), median(a.lat))-1, "share", len(b.lat))
	inst.report(m, a, b)

	unit := runProbes(e, tr, w.probeCfg, max(1, int(ratio(perOp.words, perOp.accesses)+0.5)))
	for name, v := range unit {
		m[name] = v
	}
	// attributed_share: the share of the CPU time the untraced phase kept
	// the Go runtime's processors busy that the counted work explains at
	// the probed unit costs. Every kernel event is charged as a process
	// switch, which most of them are.
	explained := (perOp.events*unit["sim.proc_switch_ns"].Value+
		perOp.accesses*unit["gmem.access_ns"].Value)/1e9 +
		perOp.sims*unit["cluster.new_machine_ms"].Value/1e3 +
		perOp.snapshots*unit["metricreg.snapshot_ms"].Value/1e3 +
		perOp.statfx*unit["statfx.text_ms"].Value/1e3 +
		perOp.cacheGets*unit["resultcache.get_us"].Value/1e6 +
		perOp.cachePuts*unit["resultcache.put_us"].Value/1e6
	busy := (after.cpu - after.idle) - (before.cpu - before.idle)
	m.set("attributed_share", ratio(explained*float64(len(a.lat)), busy), "share", len(a.lat))

	if shares, err := cpuShares(profPath); err != nil {
		e.fail("%v", err)
	} else {
		for _, bkt := range cpuBuckets {
			m.set("cpu."+bkt+"_share", shares[bkt], "share", 0)
		}
	}
	if err := tr.writeChrome(filepath.Join(outDir, w.name+".trace.json"), h); err != nil {
		e.fail("trace output: %v", err)
	}
}

// startProfile starts the CPU profiler writing to path and returns the
// function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// finishResult copies the operation tally into the result.
func (e *env) finishResult(res *result) *result {
	e.mu.Lock()
	defer e.mu.Unlock()
	res.Attempted = max(e.attempted, 1)
	res.Failed = min(e.failed, res.Attempted)
	res.Failures = e.failures
	res.Correct = e.failed == 0
	res.Metrics.set("failed_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)
	return res
}
