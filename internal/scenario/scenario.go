// Package scenario makes experiments data: a declarative .scenario
// file names everything one measurement run depends on — application,
// machine configuration, weak-scale factor, fault plan, kernel seed,
// cycle budget — plus its expected outcome and the metrics to extract
// from it. It is the repo's one experiment format: RunAll turns a
// directory of them into a canonical BENCH_scenarios.json capture that
// is committed and diffed against the previous run with per-metric
// gates (internal/benchcmp; the root package's TestScenarioCaptures);
// cedarserved runs one per bench job; cedarsim -scenario runs one file
// or a whole directory and -record-scenario writes one; the fault-
// scenario regression corpus (testdata/faultcorpus/), which
// TestCorpusReplay replays, is a directory of them; and so is the
// machine-family scaling study (testdata/scaling/): one document per
// machine, scale: 1 for strong scaling and scale: auto for weak.
//
// The paper's contribution is a measurement methodology, not a single
// number, so the repo's perf and correctness trajectory should live in
// repeatable experiment definitions rather than hand-wired Go: the
// layout follows elastic-package's _dev/benchmark/rally/<scenario>.yml
// one-file-per-scenario corpus and rancher/fleet's named-experiment
// benchmark suite, including the compare-against-prior-run step
// elastic-package itself lists as TODO.
//
// # File format
//
// A .scenario file is a strict YAML subset, hand-parsed so the repo
// takes no dependency: full-line # comments, `key: value` scalars, and
// one list key (`metrics:`) whose items follow as `- item` lines.
//
//	# FLO52 under the PR-4 page-fault kill schedule.
//	name: flo52-8proc-pgflt-kill
//	app: FLO52
//	config: 8proc
//	steps: 1
//	seed: 3327910339796038169
//	plan: ce:1@76414
//	expect: ok
//	max_cycles: 0
//	parallel: 1
//	metrics:
//	  - ct_cycles
//	  - os_breakdown
//	  - events
//	  - sim_events_per_sec
//
// Every field except app (or workload) and config is optional. `scale:
// auto` (the default) weak-scales the app by perfect.ScaleFactorFor of
// the configuration's CE count — 1 on paper machines, the CE ratio on
// scaled members — and an integer pins the factor explicitly.
// `expect:` declares the run's outcome: ok (the default) completes,
// deadlock stops with sim.ErrDeadlock, error is any other simulation
// error; a run fails only when its outcome differs. `pathology:`
// declares a class the run must show (cedar.Run.Pathologies): a
// promoted pathological workload that quietly heals fails its run.
//
// The metrics are ct_cycles, os_breakdown (the Table-2 rows),
// concurrency, events, sim_events_per_sec and the opt-in
// wall_events_per_sec, plus the scaling-study set, which needs expect:
// ok: speedup and ov_cont (each against a healthy 1-processor run of
// the same scaled app), os_share and barrier_share. They default to
// DefaultMetrics. Format prints the canonical form of a document.
package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/perfect"

	// Scenario documents may name their app as a gen: spec (app: or an
	// inline workload: block); linking the generator installs the
	// perfect.RegisterGen hook for every scenario consumer (cedarsim,
	// cedarserved, the tests) in one place.
	_ "repro/internal/perfect/gen"
)

// Ext is the file extension scenario files use.
const Ext = ".scenario"

// Metric names a scenario may extract. os_breakdown expands to one
// record per OS activity category (the Table-2 overhead decomposition
// rows); the others are single records.
const (
	// MetricCT is the completion time in cycles (deterministic, exact).
	MetricCT = "ct_cycles"
	// MetricOSBreakdown expands to the Table-2 rows: per-category OS
	// time in cycles (deterministic, exact).
	MetricOSBreakdown = "os_breakdown"
	// MetricConcurrency is the Table-1 machine concurrency
	// (deterministic, exact).
	MetricConcurrency = "concurrency"
	// MetricEvents is the kernel's dispatched-event count
	// (deterministic, exact).
	MetricEvents = "events"
	// MetricSimEventsPerSec is kernel events per simulated second —
	// event density over virtual time, a deterministic proxy for how
	// hard the machine model works per modeled second.
	MetricSimEventsPerSec = "sim_events_per_sec"
	// MetricWallEventsPerSec is kernel events per wall-clock second —
	// the real throughput trend line. Nondeterministic, so it is only
	// recorded when the runner opts in (RunAll's wallclock), gated
	// with a tolerance instead of exactly, and never part of the
	// committed byte-identical capture.
	MetricWallEventsPerSec = "wall_events_per_sec"

	// The scaling-study metrics (the paper's Table 1 and Section 7)
	// are deterministic and exact, and need a completed run: Parse
	// rejects them unless expect: is ok. speedup and ov_cont compare
	// the run against one extra healthy 1-processor base run of the
	// same resolved app (see RunCtx).

	// MetricSpeedup is the Table-1 speedup: base CT over run CT.
	MetricSpeedup = "speedup"
	// MetricOvCont is the Section-7 contention overhead Ov_cont:
	// T_p_actual minus the base's T_p_ideal estimate, percent of CT.
	MetricOvCont = "ov_cont"
	// MetricOSShare is the machine-average OS share of CT (system,
	// interrupt, and spin), in percent.
	MetricOSShare = "os_share"
	// MetricBarrierShare is the main task's barrier wait, percent of
	// CT.
	MetricBarrierShare = "barrier_share"
)

// DefaultMetrics is the extraction set when a scenario names none:
// every deterministic default, so a default capture is byte-identical
// run to run.
func DefaultMetrics() []string {
	return []string{MetricCT, MetricOSBreakdown, MetricEvents, MetricSimEventsPerSec}
}

// knownMetrics validates the metrics list.
var knownMetrics = map[string]bool{
	MetricCT: true, MetricOSBreakdown: true, MetricConcurrency: true,
	MetricEvents: true, MetricSimEventsPerSec: true, MetricWallEventsPerSec: true,
	MetricSpeedup: true, MetricOvCont: true, MetricOSShare: true, MetricBarrierShare: true,
}

// completedOnly are the metrics that need a run that completed.
var completedOnly = map[string]bool{
	MetricSpeedup: true, MetricOvCont: true, MetricOSShare: true, MetricBarrierShare: true,
}

// ScaleAuto is the Scale sentinel for perfect.ScaleFactorFor.
const ScaleAuto = 0

// knownPathologies validates the pathology: key against the detector
// classes (cedar.Run.Pathologies).
var knownPathologies = map[string]bool{
	cedar.PathologyHotSpot: true, cedar.PathologyBarrierConvoy: true, cedar.PathologyPageStorm: true,
}

// Outcomes a scenario may declare (expect: key); the empty string
// means ExpectOK. Outcome classifies a run into the same vocabulary.
const (
	ExpectOK       = "ok"       // the run completes without error
	ExpectDeadlock = "deadlock" // the run stops with sim.ErrDeadlock
	ExpectError    = "error"    // the run fails with any other error
)

// defaultWallTol is the MetricWallEventsPerSec tolerance when a
// scenario sets none.
const defaultWallTol = 0.5

// Scenario is one parsed experiment definition.
type Scenario struct {
	// Name identifies the scenario in captures and reports. Defaults to
	// the file's base name without Ext.
	Name string
	// App is the application source: a registry name ("FLO52") or a
	// gen: spec. Exactly one of App and Workload must be set.
	App string
	// Workload is an inline workload document (the workload: block) or
	// a single-line gen: spec — any perfect.Resolver source except a
	// file path, so a scenario document stays self-contained and safe
	// to accept over the network (cedarserved bench jobs).
	Workload string
	// Pathology declares the pathology class the run must show ("" =
	// none); see the cedar.Pathology constants.
	Pathology string
	// Config is the machine family member name (arch.FamilyByName).
	Config string
	// Steps overrides the app's timestep count when > 0.
	Steps int
	// Scale is the weak-scale factor; ScaleAuto (the default) derives
	// it from the configuration's CE count.
	Scale int
	// Seed overrides the deterministic kernel seed when non-zero.
	Seed int64
	// Plan is the fault plan (empty = healthy run).
	Plan faults.Plan
	// Expect is the declared outcome: ExpectOK ("" too), ExpectDeadlock,
	// or ExpectError.
	Expect string
	// Parallel bounds intra-run batch parallelism (cedar.Options.Parallel).
	Parallel int
	// MaxCycles aborts the run past this virtual time (0 = unlimited).
	MaxCycles int64
	// Metrics is the extraction set (DefaultMetrics when empty).
	Metrics []string
	// WallTol is the tolerance for MetricWallEventsPerSec, in (0,1);
	// Parse defaults it to defaultWallTol, and 0 means the default too.
	WallTol float64
	// File is the source path, for error messages ("" when parsed from
	// memory, e.g. a bench service job).
	File string

	// app and cfg are resolved once by validate; Resolve and the
	// accessors below reuse them instead of re-querying the registries.
	app perfect.App
	cfg arch.Config
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Resolve returns the weak-scaled app and configuration the scenario
// runs. Both were resolved and validated at parse time; only the
// weak-scale transform is applied here.
func (sc *Scenario) Resolve() (perfect.App, arch.Config, error) {
	if sc.app.Name == "" {
		return perfect.App{}, arch.Config{}, fmt.Errorf("scenario %s: not validated (use Parse)", sc.Name)
	}
	return sc.app.Scaled(sc.ScaleFactor()), sc.cfg, nil
}

// AppName returns the resolved app's name — the App field for
// registry-named scenarios, the document's workload name otherwise.
func (sc *Scenario) AppName() string {
	if sc.app.Name != "" {
		return sc.app.Name
	}
	return sc.App
}

// ScaleFactor returns the resolved weak-scale factor.
func (sc *Scenario) ScaleFactor() int {
	if sc.Scale != ScaleAuto {
		return sc.Scale
	}
	if sc.cfg.Name != "" {
		return perfect.ScaleFactorFor(sc.cfg.CEs())
	}
	if cfg, ok := arch.FamilyByName(sc.Config); ok {
		return perfect.ScaleFactorFor(cfg.CEs())
	}
	return 1
}

// metricSet returns the effective extraction set: the declared metrics
// (or DefaultMetrics), plus MetricWallEventsPerSec when wallclock is
// on and the set lacks it.
func (sc *Scenario) metricSet(wallclock bool) []string {
	ms := sc.Metrics
	if len(ms) == 0 {
		ms = DefaultMetrics()
	}
	if wallclock {
		seen := false
		for _, m := range ms {
			if m == MetricWallEventsPerSec {
				seen = true
			}
		}
		if !seen {
			ms = append(append([]string(nil), ms...), MetricWallEventsPerSec)
		}
	}
	return ms
}

// Parse parses one scenario document. fallbackName names the scenario
// when the document has no name: key (callers pass the file's base
// name, or a job id). Parsing resolves the app, configuration, and
// fault plan against the live registries so a bad scenario is rejected
// before anything runs.
func Parse(fallbackName string, data []byte) (*Scenario, error) {
	sc := &Scenario{Name: fallbackName, Scale: ScaleAuto, WallTol: defaultWallTol}
	var listKey string   // non-empty while consuming "- item" lines
	var wlBlock bool     // consuming the workload: block's indented lines
	var wlLines []string // the block's lines, dedented
	seen := map[string]bool{}
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		if wlBlock && strings.HasPrefix(line, "  ") {
			// Workload block content: strip exactly the block's two-space
			// indent, keeping the document's own phase indentation.
			wlLines = append(wlLines, line[2:])
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		wlBlock = false
		if item, ok := strings.CutPrefix(trimmed, "- "); ok {
			if listKey == "" {
				return nil, fmt.Errorf("scenario line %d: list item %q outside a list key", lineNo, trimmed)
			}
			item = strings.TrimSpace(item)
			if !knownMetrics[item] {
				return nil, fmt.Errorf("scenario line %d: unknown metric %q (want %s)",
					lineNo, item, strings.Join(metricNames(), ", "))
			}
			sc.Metrics = append(sc.Metrics, item)
			continue
		}
		// A scalar or list-opening key ends any open list.
		listKey = ""
		if line != trimmed {
			return nil, fmt.Errorf("scenario line %d: unexpected indentation (only list items indent)", lineNo)
		}
		key, val, ok := strings.Cut(trimmed, ":")
		if !ok {
			return nil, fmt.Errorf("scenario line %d: %q is not key: value", lineNo, trimmed)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("scenario line %d: duplicate key %q", lineNo, key)
		}
		seen[key] = true
		var err error
		switch key {
		case "name":
			sc.Name = val
		case "app":
			sc.App = val
		case "workload":
			if val != "" {
				// Single-line source (a gen: spec); an empty value opens
				// the indented document block instead.
				sc.Workload = val
			} else {
				wlBlock = true
			}
		case "pathology":
			if !knownPathologies[val] {
				err = fmt.Errorf("unknown pathology %q (want %s, %s, or %s)",
					val, cedar.PathologyHotSpot, cedar.PathologyBarrierConvoy, cedar.PathologyPageStorm)
			}
			sc.Pathology = val
		case "config":
			sc.Config = val
		case "steps":
			sc.Steps, err = nonNegInt(val)
		case "scale":
			if val == "auto" {
				sc.Scale = ScaleAuto
			} else {
				sc.Scale, err = nonNegInt(val)
				if err == nil && sc.Scale < 1 {
					err = fmt.Errorf("scale %d must be >= 1 (or auto)", sc.Scale)
				}
			}
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "plan":
			sc.Plan, err = faults.Parse(val)
		case "expect":
			switch val {
			case ExpectOK, ExpectDeadlock, ExpectError:
				sc.Expect = val
			default:
				err = fmt.Errorf("unknown outcome %q (want %s, %s, or %s)",
					val, ExpectOK, ExpectDeadlock, ExpectError)
			}
		case "parallel":
			sc.Parallel, err = nonNegInt(val)
		case "max_cycles":
			var v int
			v, err = nonNegInt(val)
			sc.MaxCycles = int64(v)
		case "wall_tol":
			sc.WallTol, err = strconv.ParseFloat(val, 64)
			if err == nil && !(sc.WallTol > 0 && sc.WallTol < 1) {
				err = fmt.Errorf("wall_tol %v out of range (0,1)", sc.WallTol)
			}
		case "metrics":
			if val != "" {
				return nil, fmt.Errorf("scenario line %d: metrics takes - item lines, not an inline value", lineNo)
			}
			listKey = key
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario line %d: %s: %v", lineNo, key, err)
		}
	}
	if len(wlLines) > 0 {
		if sc.Workload != "" {
			return nil, fmt.Errorf("scenario: workload has both an inline value and a block")
		}
		sc.Workload = strings.Join(wlLines, "\n") + "\n"
	}
	return sc, sc.validate()
}

// Format prints the scenario as a canonical document: one key per line
// in a fixed order, zero values and defaults omitted, the metrics list
// and then the workload: block last. Parse reads it back as the same
// experiment, and formatting that again gives the same bytes.
func (sc *Scenario) Format() []byte {
	var b bytes.Buffer
	kv := func(key string, val any, set bool) {
		if set {
			fmt.Fprintf(&b, "%s: %v\n", key, val)
		}
	}
	kv("name", sc.Name, sc.Name != "")
	kv("app", sc.App, sc.App != "")
	kv("config", sc.Config, sc.Config != "")
	kv("steps", sc.Steps, sc.Steps != 0)
	kv("scale", sc.Scale, sc.Scale != ScaleAuto)
	kv("seed", sc.Seed, sc.Seed != 0)
	kv("plan", sc.Plan, len(sc.Plan) > 0)
	kv("expect", sc.Expect, sc.Expectation() != ExpectOK)
	kv("parallel", sc.Parallel, sc.Parallel != 0)
	kv("max_cycles", sc.MaxCycles, sc.MaxCycles != 0)
	kv("wall_tol", sc.WallTol, sc.WallTol != 0 && sc.WallTol != defaultWallTol)
	kv("pathology", sc.Pathology, sc.Pathology != "")
	if len(sc.Metrics) > 0 {
		b.WriteString("metrics:\n")
		for _, m := range sc.Metrics {
			fmt.Fprintf(&b, "  - %s\n", m)
		}
	}
	if !strings.Contains(sc.Workload, "\n") {
		kv("workload", sc.Workload, sc.Workload != "")
		return b.Bytes()
	}
	b.WriteString("workload:\n")
	for _, line := range strings.Split(strings.TrimSuffix(sc.Workload, "\n"), "\n") {
		if line != "" {
			b.WriteString("  " + line)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// Expectation returns the declared outcome, defaulting to ExpectOK.
func (sc *Scenario) Expectation() string {
	if sc.Expect == "" {
		return ExpectOK
	}
	return sc.Expect
}

func nonNegInt(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative value %d", n)
	}
	return n, nil
}

func metricNames() []string {
	names := make([]string, 0, len(knownMetrics))
	for n := range knownMetrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// validate checks the parsed scenario against the live registries,
// resolving the app and configuration exactly once (Resolve reuses
// them).
func (sc *Scenario) validate() error {
	switch {
	case sc.Name == "":
		return fmt.Errorf("scenario missing name")
	case !nameRE.MatchString(sc.Name):
		return fmt.Errorf("scenario name %q: want %s", sc.Name, nameRE)
	case sc.App == "" && sc.Workload == "":
		return fmt.Errorf("scenario %s: missing app (or workload)", sc.Name)
	case sc.App != "" && sc.Workload != "":
		return fmt.Errorf("scenario %s: app and workload are mutually exclusive", sc.Name)
	case sc.Config == "":
		return fmt.Errorf("scenario %s: missing config", sc.Name)
	}
	src := sc.App
	if sc.Workload != "" {
		src = sc.Workload
	}
	// No file sources: a scenario document travels (bench service
	// jobs), so it must stay self-contained.
	app, err := (perfect.Resolver{}).Resolve(src)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	sc.app = app
	cfg, ok := arch.FamilyByName(sc.Config)
	if !ok {
		return fmt.Errorf("scenario %s: %w", sc.Name, arch.UnknownConfigError(sc.Config))
	}
	sc.cfg = cfg
	if err := sc.Plan.Validate(cfg); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if sc.Expectation() != ExpectOK {
		for _, m := range sc.Metrics {
			if completedOnly[m] {
				return fmt.Errorf("scenario %s: metric %s needs expect: ok (a run that stops abnormally has no completion time to compare)", sc.Name, m)
			}
		}
	}
	return nil
}

// LoadFile parses one .scenario file, defaulting the name to the file's
// base name.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	stem := strings.TrimSuffix(filepath.Base(path), Ext)
	sc, err := Parse(stem, data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc.File = path
	return sc, nil
}

// LoadDir loads every *.scenario file under dir, sorted by scenario
// name. Duplicate names are an error — the capture keys on them. An
// empty directory is an error too: a suite that gates zero scenarios
// proves nothing.
func LoadDir(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
	if err != nil {
		return nil, fmt.Errorf("scenario dir %s: %w", dir, err)
	}
	sort.Strings(paths)
	var out []*Scenario
	byName := map[string]string{}
	for _, path := range paths {
		sc, err := LoadFile(path)
		if err != nil {
			return nil, err
		}
		if prev, dup := byName[sc.Name]; dup {
			return nil, fmt.Errorf("scenario name %q appears in both %s and %s", sc.Name, prev, path)
		}
		byName[sc.Name] = path
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario dir %s: no *%s files", dir, Ext)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
