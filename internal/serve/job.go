package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// Job types accepted by the service.
const (
	TypeSimulate = "simulate" // one app on one configuration
	TypeBench    = "bench"    // one scenario document, held to its expect:
)

// JobSpec is the submitted description of one job (the POST /jobs
// body). Every job runs one scenario document: a bench job carries
// the document's text, and a simulate job's fields are a scenario
// written as JSON. Validate turns either into the one validated
// *scenario.Scenario the job runs and caches under.
type JobSpec struct {
	// Type selects the job shape: simulate (one app on one
	// configuration, answered with the run's statfx text) or bench (one
	// scenario document, answered with its record capture). A sweep is
	// one simulate job per configuration, each cached on its own. A
	// bench job whose document declares expect: deadlock or error is
	// how a recorded fault scenario replays through the service.
	Type string `json:"type"`
	// App is the scenario's app: key (simulate): a registry name or a
	// single-line gen: spec. Exactly one of App and Workload must be
	// set.
	App string `json:"app,omitempty"`
	// Workload is the scenario's workload: key (simulate): an inline
	// workload document or gen: spec, the full-document alternative to
	// App. File paths are rejected: a remote caller must not read
	// server-side files.
	Workload string `json:"workload,omitempty"`
	// Config is the scenario's config: key (simulate).
	Config string `json:"config,omitempty"`
	// Steps is the scenario's steps: key (simulate): the timestep count
	// when > 0.
	Steps int `json:"steps,omitempty"`
	// Seed is the scenario's seed: key (simulate): the kernel seed when
	// non-zero.
	Seed int64 `json:"seed,omitempty"`
	// Plan is the scenario's plan: key (simulate): a fault plan in the
	// faults.Parse grammar.
	Plan string `json:"plan,omitempty"`
	// Bench is a scenario document (bench): the text of one .scenario
	// file in the internal/scenario format. The job fails when the
	// run's outcome differs from the document's expect:. The result
	// payload is the scenario's canonical record capture —
	// deterministic, so warm resubmits come straight from the cache.
	Bench string `json:"bench,omitempty"`
	// DeadlineMS caps the job's wall-clock run time in
	// milliseconds; 0 uses the server default. Enforced by context
	// cancellation threaded into the simulation kernel.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxCycles caps virtual time (0 = unlimited): the in-model
	// counterpart of the wall-clock deadline. It is the scenario's
	// max_cycles: key for a simulate job, and tightens a bench
	// document's own budget (the smaller non-zero value wins).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// NoCache skips the result cache for this job (both lookup and
	// fill).
	NoCache bool `json:"no_cache,omitempty"`
}

// Validate turns the spec into the scenario it runs, checked against
// the live application and configuration registries, so a bad request
// is rejected at submit time (400), never discovered by a worker.
func (sp *JobSpec) Validate() (*scenario.Scenario, error) {
	if sp.DeadlineMS < 0 {
		return nil, fmt.Errorf("negative deadline_ms %d", sp.DeadlineMS)
	}
	if sp.MaxCycles < 0 {
		return nil, fmt.Errorf("negative max_cycles %d", sp.MaxCycles)
	}
	switch sp.Type {
	case TypeSimulate:
		// A simulate job runs the app unscaled, as cedarsim does. The
		// scenario is printed and parsed back, as scenario.ForRun
		// builds one, so the document's own validation applies. A
		// newline in a name would splice keys into that document.
		if strings.Contains(sp.App+sp.Config, "\n") {
			return nil, fmt.Errorf("app and config are one-line names; send a workload document as workload")
		}
		doc := scenario.Scenario{Name: TypeSimulate, App: sp.App, Workload: sp.Workload,
			Config: sp.Config, Steps: sp.Steps, Scale: 1, Seed: sp.Seed, MaxCycles: sp.MaxCycles}
		if sp.Plan != "" {
			var err error
			if doc.Plan, err = faults.Parse(sp.Plan); err != nil {
				return nil, err
			}
		}
		return scenario.Parse(doc.Name, doc.Format())
	case TypeBench:
		if strings.TrimSpace(sp.Bench) == "" {
			return nil, fmt.Errorf("bench job without a scenario document")
		}
		sc, err := scenario.Parse(TypeBench, []byte(sp.Bench))
		if err != nil {
			return nil, err
		}
		// A spec-level cycle budget only tightens the document's own;
		// the fold lands in the canonical text, hence in the cache key.
		if sp.MaxCycles > 0 && (sc.MaxCycles == 0 || sp.MaxCycles < sc.MaxCycles) {
			sc.MaxCycles = sp.MaxCycles
		}
		return sc, nil
	case "":
		return nil, fmt.Errorf("missing job type (want %s or %s)", TypeSimulate, TypeBench)
	default:
		return nil, fmt.Errorf("unknown job type %q (want %s or %s)", sp.Type, TypeSimulate, TypeBench)
	}
}

// cacheKey derives the content-address of the job's result: the job
// shape, the code version, and the scenario's canonical text, so two
// spellings of one experiment share an entry and any change to what
// runs misses.
func (sp *JobSpec) cacheKey(sc *scenario.Scenario, version string) resultcache.Key {
	return resultcache.Key{Kind: sp.Type, Version: version, Doc: string(sc.Format())}
}

// execute runs the job's scenario under ctx and returns the canonical
// result text; the type chooses only the encoding. A simulate result
// is Run.StatfxText — the byte-stable accounting block
// scenario.Reproduce compares — so it is directly diffable against a
// local cedarsim run. A bench result is the record capture, held to
// the document's expect:.
func (sp *JobSpec) execute(ctx context.Context, sc *scenario.Scenario, progress func(string)) ([]byte, error) {
	if sp.Type == TypeBench {
		recs, err := scenario.RunCtx(ctx, sc, false)
		if err != nil {
			return nil, err
		}
		progress(fmt.Sprintf("bench %s: %d record(s)", sc.Name, len(recs)))
		// The canonical capture encoding: deterministic bytes, directly
		// diffable against cedarsim -scenario on the same document.
		return scenario.EncodeCapture(recs)
	}
	run, err := sc.Simulate(ctx)
	if err != nil {
		return nil, err
	}
	progress(fmt.Sprintf("simulated %s on %s: ct=%d", sc.AppName(), sc.Config, int64(run.Result.CT)))
	return []byte(run.StatfxText()), nil
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

	sc       *scenario.Scenario // the validated experiment it runs
	cancel   context.CancelFunc // set while running
	canceled bool               // client asked for cancellation
}

// JobView is the JSON shape of GET /jobs/{id}.
type JobView struct {
	ID          string          `json:"id"`
	Spec        JobSpec         `json:"spec"`
	State       string          `json:"state"`
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
		ID: j.ID, Spec: j.Spec, State: j.State,
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
