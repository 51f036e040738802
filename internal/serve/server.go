// Package serve is the long-running simulation service: an HTTP/JSON
// API that accepts simulate jobs (one app on one configuration) and
// bench jobs (one scenario document), turns each into the one
// validated scenario it runs, runs them on a bounded worker pool
// through the deterministic engine, memoizes results in a crash-safe
// cache addressed by the scenario's canonical text, and exposes its
// own operational metrics at /metrics.
//
// Robustness is the design center — the operational analogue of the
// simulated machine's fail-stop machinery:
//
//   - Admission control: the job queue is bounded; a full queue
//     rejects with 429 and a Retry-After hint instead of growing
//     without bound, and a draining server rejects with 503.
//   - Deadlines: each job runs under a context deadline threaded into
//     the simulation kernel's interrupt check (plus the optional
//     virtual-time MaxCycles budget), so no wedged scenario can pin a
//     worker forever.
//   - Panic isolation: a panicking job fails alone, with the panic
//     value and stack preserved in its job record; the worker and the
//     server keep serving.
//   - One run per job: the same job always gives the same bytes, so a
//     failure is final and no job is ever run twice. A failed cache
//     write still serves the result in hand.
//   - Graceful drain: SIGTERM (via Drain) stops admission, lets
//     running jobs finish up to a drain deadline, cancels stragglers,
//     and persists the still-pending queue atomically so a restarted
//     server resumes exactly the work it was holding.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metricreg"
	"repro/internal/resultcache"
)

// Config tunes a Server. The zero value is usable: sensible defaults,
// no cache, no persistence.
type Config struct {
	// QueueDepth bounds the pending-job queue (default 64).
	QueueDepth int
	// Workers is the number of concurrent jobs (default GOMAXPROCS).
	Workers int
	// DefaultDeadline caps a job's wall-clock run time when the spec
	// does not set one (default 2m). Zero after defaulting disables.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 10m).
	MaxDeadline time.Duration
	// DrainTimeout is how long Drain waits for running jobs before
	// canceling them (default 30s).
	DrainTimeout time.Duration
	// CacheDir enables the result cache rooted there ("" = no cache).
	CacheDir string
	// StateDir enables pending-queue persistence ("" = none).
	StateDir string
	// Version stamps cache keys with the code version so model changes
	// miss (default "dev").
	Version string
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	return c
}

// Server is the simulation service. Create with New, start workers with
// Start, mount Handler on an http.Server, and call Drain on SIGTERM.
type Server struct {
	cfg   Config
	cache *resultcache.Cache // nil when caching is off
	q     *queue

	mu   sync.Mutex
	cond sync.Cond // broadcast on any job change (progress streaming)
	jobs map[string]*Job
	// finished lists the IDs of the terminal jobs still in jobs, oldest
	// first; retireLocked evicts from its front.
	finished []string
	seq      int

	running  atomic.Int64
	draining atomic.Bool
	wg       sync.WaitGroup

	// Metrics holds the service's operational instruments; /metrics
	// renders it with the promLabels constant labels.
	Metrics *metricreg.Registry
	met     metrics

	// failHook, when set, runs before each job and can force a failure
	// or hold the job running — the test seam for panic isolation,
	// admission and drain.
	failHook func(job *Job) error
}

// metrics are the service's operational instruments.
type metrics struct {
	submitted     metricreg.Counter
	rejectedFull  metricreg.Counter
	rejectedDrain metricreg.Counter
	done          metricreg.Counter
	failed        metricreg.Counter
	canceled      metricreg.Counter
	panics        metricreg.Counter
	deadlines     metricreg.Counter
	cacheWriteErr metricreg.Counter
	drainSeconds  metricreg.Gauge
}

// New builds a server: opens the cache, registers metrics, and resumes
// any persisted pending queue (the jobs are re-enqueued under their
// original IDs and the queue file is removed). Workers do not run
// until Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		q:       newQueue(cfg.QueueDepth),
		jobs:    map[string]*Job{},
		Metrics: metricreg.New(),
	}
	s.cond.L = &s.mu
	if cfg.CacheDir != "" {
		var err error
		if s.cache, err = resultcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	s.registerMetrics()
	if cfg.StateDir != "" {
		if err := s.resume(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Server) registerMetrics() {
	m := s.Metrics
	m.GaugeFunc("serve_queue_depth", "jobs waiting for a worker", "", func() float64 {
		return float64(s.q.depth())
	})
	m.GaugeFunc("serve_running_jobs", "jobs currently executing", "", func() float64 {
		return float64(s.running.Load())
	})
	s.met.submitted = m.Counter("serve_jobs_submitted_total", "jobs accepted into the queue or served from cache", "")
	s.met.rejectedFull = m.Counter("serve_jobs_rejected_full_total", "submissions rejected 429 because the queue was full", "")
	s.met.rejectedDrain = m.Counter("serve_jobs_rejected_draining_total", "submissions rejected 503 while draining", "")
	s.met.done = m.Counter("serve_jobs_done_total", "jobs completed successfully", "")
	s.met.failed = m.Counter("serve_jobs_failed_total", "jobs that ended in failure", "")
	s.met.canceled = m.Counter("serve_jobs_canceled_total", "jobs canceled by a client or by drain", "")
	s.met.panics = m.Counter("serve_job_panics_total", "jobs that panicked (isolated to the job)", "")
	s.met.deadlines = m.Counter("serve_deadline_exceeded_total", "jobs stopped by the per-job deadline", "")
	s.met.cacheWriteErr = m.Counter("serve_cache_write_errors_total", "result-cache write failures", "")
	s.met.drainSeconds = m.Gauge("serve_drain_seconds", "duration of the last graceful drain", "")
	if s.cache != nil {
		m.CounterFunc("serve_cache_hits_total", "result-cache hits", "", func() float64 {
			return float64(s.cache.Stats().Hits)
		})
		m.CounterFunc("serve_cache_misses_total", "result-cache misses", "", func() float64 {
			return float64(s.cache.Stats().Misses)
		})
		m.CounterFunc("serve_cache_corrupt_total", "corrupt result-cache entries detected and discarded", "", func() float64 {
			return float64(s.cache.Stats().Corrupt)
		})
		m.GaugeFunc("serve_cache_entries", "complete entries in the result cache", "", func() float64 {
			return float64(s.cache.Len())
		})
	}
}

// resume re-enqueues a persisted pending queue. A job whose spec no
// longer validates (the registry changed across the restart) is
// registered as failed rather than silently dropped.
func (s *Server) resume() error {
	pending, err := loadQueue(s.cfg.StateDir)
	if err != nil {
		return err
	}
	for _, pj := range pending {
		job := &Job{ID: pj.ID, Spec: pj.Spec, State: StateQueued, SubmittedAt: pj.SubmittedAt}
		if sc, verr := job.Spec.Validate(); verr != nil {
			job.State = StateFailed
			job.Error = fmt.Sprintf("resumed job no longer valid: %v", verr)
			job.FinishedAt = time.Now()
		} else {
			job.sc = sc
			if !s.q.push(job) {
				job.State = StateFailed
				job.Error = "resumed queue exceeds the configured queue depth"
				job.FinishedAt = time.Now()
			}
		}
		s.jobs[job.ID] = job
		if terminal(job.State) {
			s.retireLocked(job)
		}
	}
	if len(pending) > 0 {
		os.Remove(queueFile(s.cfg.StateDir))
	}
	return nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Draining reports whether the server has stopped admission.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the job layer down: admission stops (503),
// queued jobs stay queued, running jobs get until ctx's deadline (or
// the configured DrainTimeout when ctx has none) to finish and are
// then canceled, and the pending queue is persisted for the next
// process. Safe to call once; the HTTP listener is the caller's to
// close.
func (s *Server) Drain(ctx context.Context) error {
	start := time.Now()
	s.draining.Store(true)
	s.q.close()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
	}

	// The pool is fully drained exactly when every worker has exited:
	// the queue is closed, so each worker returns as soon as its
	// current job (if any) finishes. Waiting on the pool rather than on
	// a running-jobs counter closes the race with a worker that popped
	// a job just before close but has not yet registered it as running
	// — such a job still holds its worker, and the pool does not exit
	// until it is done or canceled.
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		// Deadline passed: cancel stragglers until the pool exits. The
		// sweep repeats because a worker may register a freshly popped
		// job only after a cancel pass has already run; each registered
		// job is then stopped at the kernel's next interrupt check.
		for draining := true; draining; {
			s.mu.Lock()
			for _, j := range s.jobs {
				if j.State == StateRunning && j.cancel != nil {
					if j.Error == "" {
						j.Error = "canceled: server draining"
					}
					j.cancel()
				}
			}
			s.mu.Unlock()
			select {
			case <-drained:
				draining = false
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	var err error
	if s.cfg.StateDir != "" {
		err = persistQueue(s.cfg.StateDir, s.q.snapshot())
	}
	s.met.drainSeconds.Set(time.Since(start).Seconds())
	return err
}

// newID mints a job ID: a monotonic sequence number plus random bits
// so IDs stay unique across restarts that resume persisted jobs.
func (s *Server) newID() string {
	var b [4]byte
	rand.Read(b[:])
	s.seq++
	return fmt.Sprintf("j%06d-%s", s.seq, hex.EncodeToString(b[:]))
}

// addEvent appends a progress line to the job's log and wakes
// streamers. Takes the server lock.
func (s *Server) addEvent(job *Job, msg string) {
	s.mu.Lock()
	job.events = append(job.events, ProgressEvent{At: time.Now(), Msg: msg})
	s.cond.Broadcast()
	s.mu.Unlock()
}

// panicError is a recovered job panic.
type panicError struct {
	val   string
	stack string
}

func (e *panicError) Error() string { return "job panicked: " + e.val }

// isAbort reports a job stopped by cancellation (client cancel or
// drain) rather than by its own failure.
func isAbort(err error) bool { return errors.Is(err, context.Canceled) }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.q.pop()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// runJob runs one job once and records its terminal state. Panics
// never escape: they are recorded on the job.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.canceled {
		s.finishLocked(job, StateCanceled, "canceled before start")
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job.State = StateRunning
	job.StartedAt = time.Now()
	job.cancel = cancel
	job.events = append(job.events, ProgressEvent{At: job.StartedAt, Msg: "started"})
	s.cond.Broadcast()
	s.mu.Unlock()
	s.running.Add(1)
	defer s.running.Add(-1)
	defer cancel()

	payload, err := s.run(ctx, job)

	s.mu.Lock()
	defer s.mu.Unlock()
	var pe *panicError
	switch {
	case err == nil:
		job.result = payload
		s.finishLocked(job, StateDone, "")
	case errors.As(err, &pe):
		job.PanicVal = pe.val
		job.Stack = pe.stack
		s.met.panics.Inc()
		s.finishLocked(job, StateFailed, pe.Error())
	case isAbort(err):
		reason := job.Error // drain pre-fills "canceled: server draining"
		if reason == "" {
			reason = "canceled"
		}
		s.finishLocked(job, StateCanceled, reason)
	default:
		s.finishLocked(job, StateFailed, err.Error())
	}
}

// maxFinishedJobs bounds the terminal job records the server keeps.
// Each holds its result payload, progress log and metric snapshot, so
// without a bound a long-lived server's memory grows with the number
// of jobs it has ever run. Queued and running jobs are always kept.
const maxFinishedJobs = 256

// retireLocked records that job reached a terminal state and evicts
// the oldest terminal jobs beyond maxFinishedJobs: their IDs answer
// 404 from then on, while a resubmitted spec is still served from the
// result cache. Caller holds s.mu.
func (s *Server) retireLocked(job *Job) {
	s.finished = append(s.finished, job.ID)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// finishLocked moves a job to a terminal state and stamps it with the
// service's scalar metric snapshot. Caller holds s.mu; the snapshot's
// pull functions read the queue, the running counter, and the cache —
// none re-enter s.mu.
func (s *Server) finishLocked(job *Job, state, errMsg string) {
	job.State = state
	if errMsg != "" {
		job.Error = errMsg
	}
	job.FinishedAt = time.Now()
	job.events = append(job.events, ProgressEvent{At: job.FinishedAt, Msg: state})
	switch state {
	case StateDone:
		s.met.done.Inc()
	case StateFailed:
		s.met.failed.Inc()
	case StateCanceled:
		s.met.canceled.Inc()
	}
	job.Metrics = s.Metrics.Snapshot().Scalars()
	s.retireLocked(job)
	s.cond.Broadcast()
}

// run executes the job: cache lookup, execution under the job's
// deadline, cache fill. A panic anywhere inside — the simulation, the
// cache, the hook — comes back as *panicError.
func (s *Server) run(jobCtx context.Context, job *Job) (payload []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: fmt.Sprint(r), stack: string(debug.Stack())}
		}
	}()
	if h := s.failHook; h != nil {
		if herr := h(job); herr != nil {
			return nil, herr
		}
	}
	useCache := s.cache != nil && !job.Spec.NoCache
	key := job.Spec.cacheKey(job.sc, s.cfg.Version)
	if useCache {
		if p, ok := s.cache.Get(key); ok {
			s.mu.Lock()
			job.CacheHit = true
			s.mu.Unlock()
			s.addEvent(job, "result cache hit")
			return p, nil
		}
	}
	deadline := s.cfg.DefaultDeadline
	if job.Spec.DeadlineMS > 0 {
		deadline = min(time.Duration(job.Spec.DeadlineMS)*time.Millisecond, s.cfg.MaxDeadline)
	}
	ctx := jobCtx
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(jobCtx, deadline)
		defer cancel()
	}
	payload, err = job.Spec.execute(ctx, job.sc, func(msg string) { s.addEvent(job, msg) })
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && jobCtx.Err() == nil {
			s.met.deadlines.Inc()
			return nil, fmt.Errorf("job deadline %v exceeded: %w", deadline, err)
		}
		return nil, err
	}
	// The result is in hand and deterministic: a sick cache disk costs
	// the next identical job a rerun, not this one its result.
	if useCache {
		if perr := s.cache.Put(key, payload); perr != nil {
			s.met.cacheWriteErr.Inc()
			s.addEvent(job, "serving result despite cache write failure: "+perr.Error())
		}
	}
	return payload, nil
}
