// Command bench is the repository benchmark. It runs the simulator's
// four end-to-end workloads, checks that their outputs are correct,
// stamps the host, and reports the metrics BENCHMARK.json names: the
// end-to-end metrics untraced, and with -trace 1 the per-layer metrics
// of a traced run (spans around every call it makes, a CPU profile, and
// unit-cost probes of each layer).
//
// Run it from the repository root; bench/run.sh builds it first:
//
//	bash bench/run.sh                                   all four workloads
//	bash bench/run.sh --workload bigrun --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh -out a; bash bench/run.sh -out b; bash bench/run.sh -compare a b
//
// Each workload runs in a child process of its own, so its peak RSS and
// Go runtime state belong to it alone. The last line of standard output
// is one JSON object: correct, attempted, failed and metrics. The exit
// status is 1 when any operation failed or any output was wrong.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childLimit bounds one workload's child process, within the three
// minutes a run may take.
const childLimit = 170 * time.Second

type config struct {
	workload       string
	seed           int64
	seconds        float64
	trace          int
	out            string
	compare        bool
	quick          bool
	expected       string
	updateExpected bool
	child          bool
	flags          []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "run one workload (default: all)")
	fs.Int64Var(&c.seed, "seed", 0, "input seed: 0 gives the canonical inputs the goldens check, any other value held-out inputs")
	fs.Float64Var(&c.seconds, "seconds", 15, "seconds each workload measures")
	fs.IntVar(&c.trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&c.out, "out", "", "directory for each workload's capture, trace and CPU profile")
	fs.BoolVar(&c.compare, "compare", false, "compare two sets of captures: -compare A B")
	fs.BoolVar(&c.quick, "quick", false, "small inputs (smoke test)")
	fs.StringVar(&c.expected, "expected", "", "bigrun digest file (default bench/expected.json)")
	fs.BoolVar(&c.updateExpected, "update-expected", false, "rewrite the bigrun digest file from this run (seed 0)")
	fs.BoolVar(&c.child, "child", false, "run one workload in this process (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.flags = args
	if c.trace != 0 && c.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if c.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two capture directories or files")
			return 2
		}
		return compare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := []string{c.workload}
	if c.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.child {
		return runChild(ctx, c, root, stdout, stderr)
	}

	var results []*result
	for _, n := range names {
		res := spawn(ctx, c, root, n, stderr)
		res.keepReported(spec, c.trace == 1)
		results = append(results, res)
		res.print(stdout)
		if c.out != "" {
			if err := res.save(c.out); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
	}
	line, ok := summary(results)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// findRoot returns the repository root: the nearest directory, from the
// working directory up, that holds the benchmark.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "bench", "expected.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no bench/expected.json in the working directory or above it")
		}
		dir = parent
	}
}

// runChild measures one workload in this process and prints its result
// as one JSON line.
func runChild(ctx context.Context, c config, root string, stdout, stderr io.Writer) int {
	w, _ := findWorkload(c.workload)
	if w.procs > 0 && os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(w.procs)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_out"), 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_out"), "tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{cfg: c, root: root, tmp: tmp}
	res := runWorkload(ctx, w, e, hostInfo(c.seed, c.flags))
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// spawn runs one workload in a child process and adds its peak RSS.
func spawn(ctx context.Context, c config, root, name string, stderr io.Writer) *result {
	failed := func(format string, a ...any) *result {
		return &result{Workload: name, Attempted: 1, Failed: 1, Metrics: metricSet{},
			Failures: []string{fmt.Sprintf(format, a...)}}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed("%v", err)
	}
	ctx, cancel := context.WithTimeout(ctx, childLimit)
	defer cancel()
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", strconv.Itoa(c.trace),
		"-out", c.out, "-expected", c.expected,
		"-quick=" + strconv.FormatBool(c.quick), "-update-expected=" + strconv.FormatBool(c.updateExpected)}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Dir = root
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return failed("workload process: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return failed("workload process output: %v", err)
	}
	res.Host.Flags = c.flags
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Metrics.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB", 1) // Linux reports KiB
	}
	return &res
}

// metric is one reported number. N is its sample count where it is a
// statistic over samples.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// Exact marks a deterministic count, which repeats exactly for the
	// same inputs.
	Exact bool `json:"exact,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// result is one workload run: the capture -out writes and -compare reads.
type result struct {
	Workload  string    `json:"workload"`
	Host      host      `json:"host"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   metricSet `json:"metrics"`
	// Reported are the metrics BENCHMARK.json names for this kind of run:
	// the end-to-end ones untraced, the per-layer ones traced.
	Reported []string `json:"reported"`
}

// workloadOnly names the per-layer metrics of layers only some
// workloads exercise; the others report them as 0.
var workloadOnly = map[string][]string{
	"engine.busy_share":       {"paper-sweep", "scenario-suite"},
	"engine.tail_s":           {"paper-sweep", "scenario-suite"},
	"engine.job_p50_ms":       {"paper-sweep", "scenario-suite"},
	"engine.job_max_ms":       {"paper-sweep", "scenario-suite"},
	"scenario.run_p50_ms":     {"scenario-suite"},
	"scenario.run_p98_ms":     {"scenario-suite"},
	"model.err_pct":           {"paper-sweep"},
	"serve.latency_p99_ms":    {"served-mix"},
	"serve.submit_p50_ms":     {"served-mix"},
	"serve.warm_p50_ms":       {"served-mix"},
	"serve.cold_p50_ms":       {"served-mix"},
	"serve.queue_wait_p50_ms": {"served-mix"},
	"serve.queue_wait_p99_ms": {"served-mix"},
	"serve.exec_p50_ms":       {"served-mix"},
	"serve.heap_kb_per_job":   {"served-mix"},
	"resultcache.hit_ratio":   {"served-mix"},
	"resultcache.lookups":     {"served-mix"},
	"resultcache.corrupt":     {"served-mix"},
}

// keepReported fixes the metrics the run reports to the ones BENCHMARK.json
// names, with their declared units. A named metric the run did not
// measure fails the run, unless its layer is one the workload does not
// exercise.
func (r *result) keepReported(s *benchSpec, traced bool) {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	if len(r.Failures) > 0 && len(r.Metrics) == 0 {
		return // the child never reported
	}
	for _, ms := range want {
		got, ok := r.Metrics[ms.Name]
		if !ok {
			only := workloadOnly[ms.Name]
			if len(only) > 0 && !contains(only, r.Workload) {
				got, ok = metric{Value: 0, Unit: ms.Unit}, true
				r.Metrics[ms.Name] = got
			}
		}
		switch {
		case !ok:
			r.fail("metric %s was not measured", ms.Name)
		case got.Unit != ms.Unit:
			r.fail("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, got.Unit, ms.Unit)
		default:
			r.Reported = append(r.Reported, ms.Name)
		}
	}
}

func (r *result) fail(format string, a ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
	r.Correct = false
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// print writes the human-readable report: the host, the operation
// tally, and every metric with its unit and sample count.
func (r *result) print(w io.Writer) {
	h := r.Host
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	rev := h.Revision
	if rev == "" {
		rev = "unknown"
	}
	if h.Dirty {
		rev += "+dirty"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d)\n   host: %s; %d CPUs, GOMAXPROCS %d; %s %s/%s; revision %s\n",
		r.Workload, mode, h.Seed, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.OS, h.Arch, rev)
	fmt.Fprintf(w, "   operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "   %-28s %16.6g %-6s%s\n", n, m.Value, m.Unit, samples)
	}
}

// captureName is the file a run's capture is saved under.
func (r *result) captureName() string {
	if r.Traced {
		return r.Workload + ".traced.json"
	}
	return r.Workload + ".json"
}

func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.captureName()), append(data, '\n'), 0o644)
}

// summary is the final output line. One workload reports its metrics by
// name; several report them as workload/name.
func summary(results []*result) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct && r.Failed == 0 && len(r.Failures) == 0
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, n := range r.Reported {
			key := n
			if len(results) > 1 {
				key = r.Workload + "/" + n
			}
			out.Metrics[key] = value{r.Metrics[n].Value, r.Metrics[n].Unit}
		}
	}
	if !out.Correct && out.Failed == 0 {
		out.Failed = 1 // a wrong output or a missing metric with no failed operation
	}
	data, _ := json.Marshal(out) // finite numbers and strings: ratio and quantile never divide by zero
	return string(data), out.Correct
}

// benchSpec is BENCHMARK.json: the workloads, and each metric's unit,
// direction and regression bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
