package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/perfect"
	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Job types accepted by the service.
const (
	TypeSimulate = "simulate" // one app on one configuration
	TypeBench    = "bench"    // one scenario document, held to its expect:
)

// JobSpec is the submitted description of one job (the POST /jobs
// body). Fields are per-type; Validate names misuse precisely.
type JobSpec struct {
	// Type selects the job shape: simulate (one app on one
	// configuration) or bench (one scenario document). A sweep is one
	// simulate job per configuration, each cached on its own. A bench
	// job whose document declares expect: deadlock or error is how a
	// recorded fault scenario replays through the service.
	Type string `json:"type"`
	// App is the application name (simulate). Registry names and
	// single-line gen: specs both resolve; exactly one of App and
	// Workload must be set.
	App string `json:"app,omitempty"`
	// Workload is an inline workload document or gen: spec (simulate)
	// — the full-document alternative to App. File paths are
	// rejected: a remote caller must not read server-side files. The
	// source text folds into the result-cache key, so two generated
	// apps differing in any knob never share a cache slot.
	Workload string `json:"workload,omitempty"`
	// Config is the configuration name (simulate).
	Config string `json:"config,omitempty"`
	// Steps overrides the timestep count when > 0 (simulate).
	Steps int `json:"steps,omitempty"`
	// Seed overrides the deterministic kernel seed when non-zero
	// (simulate).
	Seed int64 `json:"seed,omitempty"`
	// Plan is a fault plan in the faults.Parse grammar (simulate).
	Plan string `json:"plan,omitempty"`
	// Bench is a scenario document (bench): the text of one .scenario
	// file in the internal/scenario format. The job fails when the
	// run's outcome differs from the document's expect:. The result
	// payload is the scenario's canonical record capture —
	// deterministic, so warm resubmits come straight from the cache.
	Bench string `json:"bench,omitempty"`
	// DeadlineMS caps each attempt's wall-clock run time in
	// milliseconds; 0 uses the server default. Enforced by context
	// cancellation threaded into the simulation kernel.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxCycles caps virtual time (0 = unlimited): the in-model
	// counterpart of the wall-clock deadline.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// NoCache skips the result cache for this job (both lookup and
	// fill).
	NoCache bool `json:"no_cache,omitempty"`
}

// resolved carries the validated, decoded form of a spec so execution
// never re-parses.
type resolved struct {
	app   perfect.App
	cfg   arch.Config
	plan  faults.Plan
	bench *scenario.Scenario
}

// Validate checks the spec against the live application and
// configuration registries and parses plan/scenario text, so a bad
// request is rejected at submit time (400), never discovered by a
// worker.
func (sp *JobSpec) Validate() (resolved, error) {
	var r resolved
	var err error
	switch sp.Type {
	case TypeSimulate:
		if r.app, err = sp.resolveApp(); err != nil {
			return r, err
		}
		if r.cfg, err = lookupConfig(sp.Config); err != nil {
			return r, err
		}
		if sp.Plan != "" {
			if r.plan, err = faults.Parse(sp.Plan); err != nil {
				return r, err
			}
			if err = r.plan.Validate(r.cfg); err != nil {
				return r, err
			}
		}
	case TypeBench:
		if strings.TrimSpace(sp.Bench) == "" {
			return r, fmt.Errorf("bench job without a scenario document")
		}
		if r.bench, err = scenario.Parse("bench", []byte(sp.Bench)); err != nil {
			return r, err
		}
		// A spec-level cycle budget tightens (or sets) the document's
		// own: both are part of the cache key, so the fold is safe.
		if sp.MaxCycles > 0 {
			r.bench.MaxCycles = sp.MaxCycles
		}
	case "":
		return r, fmt.Errorf("missing job type (want %s or %s)", TypeSimulate, TypeBench)
	default:
		return r, fmt.Errorf("unknown job type %q (want %s or %s)", sp.Type, TypeSimulate, TypeBench)
	}
	if sp.DeadlineMS < 0 {
		return r, fmt.Errorf("negative deadline_ms %d", sp.DeadlineMS)
	}
	if sp.MaxCycles < 0 {
		return r, fmt.Errorf("negative max_cycles %d", sp.MaxCycles)
	}
	return r, nil
}

// resolveApp resolves a spec's workload source: the App name (or
// single-line gen: spec) or the Workload document, exactly one of
// which must be set. File sources are rejected (Resolver.AllowFiles
// stays false): the spec arrived over the network.
func (sp *JobSpec) resolveApp() (perfect.App, error) {
	switch {
	case sp.App == "" && sp.Workload == "":
		return perfect.App{}, fmt.Errorf("missing app (or workload)")
	case sp.App != "" && sp.Workload != "":
		return perfect.App{}, fmt.Errorf("app and workload are mutually exclusive")
	}
	src := sp.App
	if sp.Workload != "" {
		src = sp.Workload
	}
	return (perfect.Resolver{}).Resolve(src)
}

func lookupConfig(cfgName string) (arch.Config, error) {
	cfg, ok := arch.FamilyByName(cfgName)
	if !ok {
		return cfg, arch.UnknownConfigError(cfgName)
	}
	return cfg, nil
}

// cacheKey derives the content-address of the job's result. The
// version stamp makes results model-output-versioned; bench jobs fold
// their document into the Plan field so any edit misses.
func (sp *JobSpec) cacheKey(version string) resultcache.Key {
	k := resultcache.Key{Kind: sp.Type, Version: version,
		Steps: sp.Steps, Seed: sp.Seed, MaxCycles: sp.MaxCycles}
	switch sp.Type {
	case TypeSimulate:
		k.App, k.Config, k.Plan = sp.App, sp.Config, sp.Plan
		k.Workload = sp.Workload
	case TypeBench:
		// The document text is the whole identity (any edit misses);
		// spec MaxCycles stays in the key because it folds into the run.
		k.App = "bench"
		k.Plan = sp.Bench
		k.Steps, k.Seed = 0, 0
	}
	return k
}

// execute runs the job body under ctx and returns the canonical result
// text. A simulate result is Run.StatfxText — the byte-stable
// accounting block scenario.Reproduce compares — so a service result
// is directly diffable against a local cedarsim run.
func (sp *JobSpec) execute(ctx context.Context, r resolved, progress func(string)) ([]byte, error) {
	switch sp.Type {
	case TypeSimulate:
		run, err := cedar.SimulateRunCtx(ctx, r.app, r.cfg, cedar.Options{
			Steps: sp.Steps, Seed: sp.Seed, Faults: r.plan, MaxCycles: sim.Time(sp.MaxCycles)})
		if err != nil {
			return nil, err
		}
		progress(fmt.Sprintf("simulated %s on %s: ct=%d", r.app.Name, sp.Config, int64(run.Result.CT)))
		return []byte(run.StatfxText()), nil

	case TypeBench:
		recs, err := scenario.RunCtx(ctx, r.bench, false)
		if err != nil {
			return nil, err
		}
		progress(fmt.Sprintf("bench %s: %d record(s)", r.bench.Name, len(recs)))
		// The canonical capture encoding: deterministic bytes, directly
		// diffable against a cedarbench run of the same document.
		return scenario.EncodeCapture(recs)
	}
	return nil, fmt.Errorf("unknown job type %q", sp.Type)
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// ProgressEvent is one line of a job's progress log, streamed by
// GET /jobs/{id}/events.
type ProgressEvent struct {
	At  time.Time `json:"at"`
	Msg string    `json:"msg"`
}

// Job is the server-side record of one submitted job. All fields are
// guarded by the server's mutex; JSON views are built from snapshots.
type Job struct {
	ID   string
	Spec JobSpec

	State    string
	Retries  int
	CacheHit bool
	Error    string
	PanicVal string
	Stack    string

	// Metrics is the service's scalar metric snapshot taken the moment
	// the job reached its terminal state — queue depth, running jobs,
	// cache traffic — so a job record carries the operational context it
	// finished under.
	Metrics map[string]float64

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	result []byte
	events []ProgressEvent

	res      resolved
	cancel   context.CancelFunc // set while running
	canceled bool               // client asked for cancellation
}

// JobView is the JSON shape of GET /jobs/{id}.
type JobView struct {
	ID          string          `json:"id"`
	Spec        JobSpec         `json:"spec"`
	State       string          `json:"state"`
	Retries     int             `json:"retries"`
	CacheHit    bool            `json:"cache_hit"`
	Error       string          `json:"error,omitempty"`
	Panic       string          `json:"panic,omitempty"`
	Stack       string          `json:"stack,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Events      []ProgressEvent `json:"events,omitempty"`

	// Metrics is the scalar metric snapshot attached when the job
	// finished (terminal states only).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// view snapshots the job for JSON encoding. Caller holds the server
// mutex.
func (j *Job) view(withEvents bool) JobView {
	v := JobView{
		ID: j.ID, Spec: j.Spec, State: j.State, Retries: j.Retries,
		CacheHit: j.CacheHit, Error: j.Error, Panic: j.PanicVal, Stack: j.Stack,
		SubmittedAt: j.SubmittedAt,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
	}
	if withEvents {
		v.Events = append([]ProgressEvent(nil), j.events...)
		if j.Metrics != nil {
			v.Metrics = make(map[string]float64, len(j.Metrics))
			for k, val := range j.Metrics {
				v.Metrics[k] = val
			}
		}
	}
	return v
}

// sortViews orders job views newest-submission-first with ID as the
// tie-break, for the list endpoint.
func sortViews(vs []JobView) {
	sort.Slice(vs, func(i, k int) bool {
		if !vs[i].SubmittedAt.Equal(vs[k].SubmittedAt) {
			return vs[i].SubmittedAt.After(vs[k].SubmittedAt)
		}
		return vs[i].ID < vs[k].ID
	})
}
