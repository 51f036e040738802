package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/metricreg"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs              submit a job (202; 200 on a warm-cache
//	                          fast path; 400 invalid; 413 body over
//	                          MaxBodyBytes; 429 queue full with
//	                          Retry-After; 503 draining)
//	GET    /jobs              list job records, newest first
//	GET    /jobs/{id}         one job record, with its progress log
//	GET    /jobs/{id}/result  the result payload (text/plain) once done
//	GET    /jobs/{id}/events  stream the progress log as NDJSON until
//	                          the job reaches a terminal state
//	POST   /jobs/{id}/cancel  cancel a queued or running job
//	DELETE /jobs/{id}         same as cancel
//	GET    /metrics           Prometheus text exposition
//	GET    /metrics.json      the same registry snapshot as JSON
//	GET    /metrics.csv       the same registry snapshot as CSV
//	GET    /healthz           200 serving / 503 draining
//
// The three metric endpoints render one registry snapshot each — the
// central directory in internal/metricreg — so they can never disagree
// about which metrics exist.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metricreg.WriteProm(w, s.Metrics.Snapshot(), promLabels)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		metricreg.WriteJSON(w, s.Metrics.Snapshot())
	})
	mux.HandleFunc("GET /metrics.csv", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		metricreg.WriteCSV(w, s.Metrics.Snapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// promLabels are the constant labels on every /metrics sample.
var promLabels = map[string]string{"service": "cedarserved"}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the JSON error shape.
type errorBody struct {
	Error string `json:"error"`
}

// submitResponse is the POST /jobs reply.
type submitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
}

// retryAfter is the Retry-After hint, in seconds, sent with 429 and
// 503 answers.
const retryAfter = "1"

// MaxBodyBytes bounds a job submission's request body. A job spec is a
// few hundred bytes and the paper apps' workload documents are under a
// kilobyte each, so a megabyte only stops hostile or broken clients.
const MaxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfter)
		s.met.rejectedDrain.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining; not accepting jobs"})
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("job spec exceeds the %d-byte body limit", MaxBodyBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	sc, err := spec.Validate()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Warm-cache fast path: a memoized result completes the job at
	// submit time without consuming a queue slot.
	if s.cache != nil && !spec.NoCache {
		if payload, ok := s.cache.Get(spec.cacheKey(sc, s.cfg.Version)); ok {
			s.mu.Lock()
			job := &Job{ID: s.newID(), Spec: spec, sc: sc, State: StateDone,
				CacheHit: true, SubmittedAt: time.Now()}
			job.FinishedAt = job.SubmittedAt
			job.result = payload
			job.events = append(job.events,
				ProgressEvent{At: job.SubmittedAt, Msg: "result cache hit at submit"},
				ProgressEvent{At: job.SubmittedAt, Msg: StateDone})
			s.jobs[job.ID] = job
			s.met.submitted.Inc()
			s.met.done.Inc()
			job.Metrics = s.Metrics.Snapshot().Scalars()
			s.retireLocked(job)
			s.cond.Broadcast()
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, submitResponse{ID: job.ID, State: StateDone, CacheHit: true})
			return
		}
	}

	s.mu.Lock()
	job := &Job{ID: s.newID(), Spec: spec, sc: sc, State: StateQueued, SubmittedAt: time.Now()}
	if !s.q.push(job) {
		s.mu.Unlock()
		s.met.rejectedFull.Inc()
		w.Header().Set("Retry-After", retryAfter)
		writeJSON(w, http.StatusTooManyRequests,
			errorBody{Error: fmt.Sprintf("job queue full (%d pending)", s.q.depth())})
		return
	}
	s.jobs[job.ID] = job
	s.met.submitted.Inc()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID, State: StateQueued})
}

// job looks a job up, writing 404 on absence.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[r.PathValue("id")]
	if job == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job " + r.PathValue("id")})
	}
	return job
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view(false))
	}
	s.mu.Unlock()
	sortViews(views)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job := s.job(w, r)
	if job == nil {
		return
	}
	s.mu.Lock()
	v := job.view(true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.job(w, r)
	if job == nil {
		return
	}
	s.mu.Lock()
	state, errMsg, panicVal := job.State, job.Error, job.PanicVal
	payload := job.result
	s.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(payload)
	case StateFailed:
		msg := errMsg
		if panicVal != "" {
			msg = fmt.Sprintf("%s (panic: %s)", errMsg, panicVal)
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: msg})
	case StateCanceled:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job canceled: " + errMsg})
	default:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job is " + state})
	}
}

// handleEvents streams the job's progress log as NDJSON: every known
// event, then new ones as they land, ending with a state line when the
// job reaches a terminal state (or the client goes away).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.job(w, r)
	if job == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	// A client hang-up must wake the cond wait below.
	done := r.Context().Done()
	go func() {
		<-done
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	enc := json.NewEncoder(w)
	idx := 0
	for {
		s.mu.Lock()
		for idx >= len(job.events) && !terminal(job.State) && r.Context().Err() == nil {
			s.cond.Wait()
		}
		events := job.events[idx:]
		idx = len(job.events)
		state := job.State
		s.mu.Unlock()
		for _, ev := range events {
			if enc.Encode(ev) != nil {
				return
			}
		}
		flush()
		if r.Context().Err() != nil {
			return
		}
		if terminal(state) && idx >= s.eventCount(job) {
			enc.Encode(map[string]string{"state": state})
			flush()
			return
		}
	}
}

func (s *Server) eventCount(job *Job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(job.events)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.job(w, r)
	if job == nil {
		return
	}
	s.mu.Lock()
	job.canceled = true
	switch job.State {
	case StateQueued:
		if s.q.remove(job) {
			s.finishLocked(job, StateCanceled, "canceled while queued")
		}
		// Not in the queue anymore: a worker is picking it up and will
		// observe the canceled flag.
	case StateRunning:
		if job.cancel != nil {
			job.cancel()
		}
	}
	v := job.view(false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}
