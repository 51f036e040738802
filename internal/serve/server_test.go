package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/perfect"
	"repro/internal/scenario"
)

// fastCfg is a small test server configuration.
func fastCfg() Config {
	return Config{
		QueueDepth: 16,
		Workers:    2,
		Version:    "test-v1",
	}
}

// newTestServer builds, hooks, and starts a server. The hook must be
// installed before Start so workers never race the assignment.
func newTestServer(t *testing.T, cfg Config, hook func(*Job) error) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.failHook = hook
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// submit posts a spec and returns the HTTP status and decoded body.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (int, submitResponse, string) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var sr submitResponse
	json.Unmarshal(raw, &sr)
	return resp.StatusCode, sr, string(raw)
}

// getJob fetches a job view.
func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitState polls until the job reaches the given state.
func waitState(t *testing.T, ts *httptest.Server, id, state string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.State == state {
			return v
		}
		if terminal(v.State) {
			t.Fatalf("job %s reached %s (err %q), want %s", id, v.State, v.Error, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, state)
	return JobView{}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if terminal(v.State) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobView{}
}

// result fetches a done job's payload.
func result(t *testing.T, ts *httptest.Server, id string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// metricsText scrapes /metrics.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// metricLine is how /metrics renders one sample for this service.
func metricLine(name string, value string) string {
	return name + `{service="cedarserved"} ` + value
}

var smallSim = JobSpec{Type: TypeSimulate, App: "FLO52", Config: "8proc", Steps: 2}

// okScenario is a recorded fault scenario known to complete without
// error (testdata/faultcorpus/roadmap-pgflt-deadlock-shrunk.scenario).
const okScenario = "name: pgflt-kill\napp: FLO52\nconfig: 8proc\nsteps: 1\nscale: 1\n" +
	"seed: 3327910339796038169\nplan: ce:1@76414\n"

// smallSimWant computes the reference result: the same invocation
// through the plain facade (what cedarsim -statfx prints).
func smallSimWant(t *testing.T) string {
	t.Helper()
	return localStatfx(t, perfect.FLO52())
}

// localStatfx runs app on 8 CEs for 2 steps through the plain facade.
func localStatfx(t *testing.T, app perfect.App) string {
	t.Helper()
	run, err := cedar.SimulateRunErr(app, arch.Cedar8, cedar.Options{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	return run.StatfxText()
}

// The determinism acceptance gate: a job run via the service — cold
// cache, warm cache, and through a restart onto the same cache —
// returns StatfxText byte-identical to the direct facade run.
func TestServiceResultMatchesDirectRun(t *testing.T) {
	want := smallSimWant(t)
	cacheDir := t.TempDir()

	cfg := fastCfg()
	cfg.CacheDir = cacheDir
	s, ts := newTestServer(t, cfg, nil)

	// Cold cache.
	status, sr, raw := submit(t, ts, smallSim)
	if status != http.StatusAccepted {
		t.Fatalf("cold submit: status %d (%s)", status, raw)
	}
	v := waitTerminal(t, ts, sr.ID)
	if v.State != StateDone || v.CacheHit {
		t.Fatalf("cold job: state %s cache_hit %v (err %q)", v.State, v.CacheHit, v.Error)
	}
	if code, got := result(t, ts, sr.ID); code != 200 || got != want {
		t.Fatalf("cold result differs from direct run (status %d):\n%s", code, got)
	}

	// Warm cache: completes at submit time.
	status, sr2, raw := submit(t, ts, smallSim)
	if status != http.StatusOK || sr2.State != StateDone || !sr2.CacheHit {
		t.Fatalf("warm submit: status %d body %s", status, raw)
	}
	if _, got := result(t, ts, sr2.ID); got != want {
		t.Fatalf("warm result differs from direct run:\n%s", got)
	}
	if s.met.done.Value() != 2 {
		t.Fatalf("done counter = %d, want 2", s.met.done.Value())
	}

	// Kill and restart: a fresh server over the same cache directory.
	cfg2 := fastCfg()
	cfg2.CacheDir = cacheDir
	_, ts2 := newTestServer(t, cfg2, nil)
	status, sr3, raw := submit(t, ts2, smallSim)
	if status != http.StatusOK || !sr3.CacheHit {
		t.Fatalf("post-restart submit: status %d body %s", status, raw)
	}
	if _, got := result(t, ts2, sr3.ID); got != want {
		t.Fatalf("post-restart result differs from direct run:\n%s", got)
	}
}

// The admission-control gate: a full queue answers 429 with a
// Retry-After hint, and recovers once the backlog drains.
func TestQueueFullReturns429(t *testing.T) {
	cfg := fastCfg()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	gate := make(chan struct{})
	s, ts := newTestServer(t, cfg, func(job *Job) error {
		<-gate // hold the worker mid-job until released
		return nil
	})

	status, running, _ := submit(t, ts, smallSim)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: %d", status)
	}
	// Once the single worker picks the job up, the next submit
	// occupies the only queue slot.
	waitState(t, ts, running.ID, StateRunning)
	if status, _, _ = submit(t, ts, smallSim); status != http.StatusAccepted {
		t.Fatalf("queued submit: %d", status)
	}

	body, _ := json.Marshal(smallSim)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.met.rejectedFull.Value() != 1 {
		t.Fatalf("rejected_full = %d", s.met.rejectedFull.Value())
	}
	if !strings.Contains(metricsText(t, ts), metricLine("cedar_serve_jobs_rejected_full_total", "1")) {
		t.Fatal("429 count missing from /metrics")
	}

	// Recovery: release the gate (the hook then passes every job
	// through instantly), let the backlog drain, submit again.
	close(gate)
	waitTerminal(t, ts, running.ID)
	deadline := time.Now().Add(10 * time.Second)
	for s.q.depth() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if status, after, _ := submit(t, ts, smallSim); status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("post-recovery submit: %d", status)
	} else if done := waitTerminal(t, ts, after.ID); done.State != StateDone {
		t.Fatalf("post-recovery job: %s", done.State)
	}
}

// The panic-isolation gate: a panicking job fails alone, with the
// panic value and stack in its record; the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, fastCfg(), func(job *Job) error {
		if job.Spec.Seed == 666 {
			panic("scenario collapsed the machine model")
		}
		return nil
	})
	bad := smallSim
	bad.Seed = 666
	_, badSub, _ := submit(t, ts, bad)
	_, goodSub, _ := submit(t, ts, smallSim)

	badV := waitTerminal(t, ts, badSub.ID)
	if badV.State != StateFailed {
		t.Fatalf("panicking job state %s", badV.State)
	}
	if !strings.Contains(badV.Panic, "collapsed the machine model") || badV.Stack == "" {
		t.Fatalf("panic not preserved in record: panic=%q stack %d bytes", badV.Panic, len(badV.Stack))
	}
	if code, body := result(t, ts, badSub.ID); code != http.StatusInternalServerError || !strings.Contains(body, "panic") {
		t.Fatalf("panicked job result: %d %s", code, body)
	}

	goodV := waitTerminal(t, ts, goodSub.ID)
	if goodV.State != StateDone {
		t.Fatalf("healthy job after a panic: %s (%s)", goodV.State, goodV.Error)
	}
	if s.met.panics.Value() != 1 {
		t.Fatalf("panics metric = %d", s.met.panics.Value())
	}
	if s.q.depth() != 0 {
		t.Fatalf("queue depth %d after jobs finished", s.q.depth())
	}
	// The server still accepts and serves work.
	if status, next, _ := submit(t, ts, smallSim); status != http.StatusAccepted {
		t.Fatalf("submit after panic: %d", status)
	} else if waitTerminal(t, ts, next.ID).State != StateDone {
		t.Fatal("job after panic did not complete")
	}
}

// The deadline gate: an over-deadline job is stopped by context
// cancellation (threaded into the kernel) and fails alone, once.
func TestDeadlineExceededFailsAlone(t *testing.T) {
	s, ts := newTestServer(t, fastCfg(), nil)
	slow := JobSpec{Type: TypeSimulate, App: "ADM", Config: "32proc", Steps: 500,
		DeadlineMS: 40, NoCache: true}
	_, slowSub, _ := submit(t, ts, slow)
	_, okSub, _ := submit(t, ts, smallSim)

	v := waitTerminal(t, ts, slowSub.ID)
	if v.State != StateFailed {
		t.Fatalf("over-deadline job: state %s (err %q)", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("error does not name the deadline: %q", v.Error)
	}
	if s.met.deadlines.Value() != 1 {
		t.Fatalf("deadline metric = %d, want 1 (one run)", s.met.deadlines.Value())
	}
	if okV := waitTerminal(t, ts, okSub.ID); okV.State != StateDone {
		t.Fatalf("concurrent job: %s", okV.State)
	}
	if s.q.depth() != 0 || s.running.Load() != 0 {
		t.Fatalf("queue %d running %d after deadline failure", s.q.depth(), s.running.Load())
	}
}

// The graceful-shutdown gate: drain stops admission with 503, lets
// running jobs finish, persists the pending queue, and a restarted
// server resumes it byte-identically.
func TestGracefulDrainAndResume(t *testing.T) {
	stateDir := t.TempDir()
	cacheDir := t.TempDir()
	want := smallSimWant(t)

	cfg := fastCfg()
	cfg.Workers = 1
	cfg.StateDir = stateDir
	cfg.CacheDir = cacheDir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.failHook = func(job *Job) error {
		if job.Spec.Seed == 1 {
			<-gate
		}
		return nil
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single worker with a gated job, then queue two more.
	runningSpec := smallSim
	runningSpec.Seed = 1
	runningSpec.NoCache = true
	_, runningSub, _ := submit(t, ts, runningSpec)
	waitState(t, ts, runningSub.ID, StateRunning)
	_, pend1, _ := submit(t, ts, smallSim)
	spec2 := smallSim
	spec2.Steps = 3
	_, pend2, _ := submit(t, ts, spec2)

	// Drain concurrently; the gated job finishes once released.
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Drain(ctx)
	}()
	// Admission must stop as soon as draining begins.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if status, _, body := submit(t, ts, smallSim); status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s", status, body)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v %v", err, resp.StatusCode)
	}
	close(gate)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The running job drained to completion; the queued ones did not
	// start.
	if v := getJob(t, ts, runningSub.ID); v.State != StateDone {
		t.Fatalf("running job after drain: %s (%q)", v.State, v.Error)
	}
	for _, id := range []string{pend1.ID, pend2.ID} {
		if v := getJob(t, ts, id); v.State != StateQueued {
			t.Fatalf("pending job %s after drain: %s", id, v.State)
		}
	}

	persisted, err := os.ReadFile(filepath.Join(stateDir, "queue.json"))
	if err != nil {
		t.Fatalf("queue not persisted: %v", err)
	}

	// Restart: a new server over the same state dir resumes the queue.
	cfg2 := fastCfg()
	cfg2.StateDir = stateDir
	cfg2.CacheDir = cacheDir
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical resume: re-persisting the resumed queue must
	// reproduce the original file exactly.
	checkDir := t.TempDir()
	if err := persistQueue(checkDir, s2.q.snapshot()); err != nil {
		t.Fatal(err)
	}
	rePersisted, _ := os.ReadFile(filepath.Join(checkDir, "queue.json"))
	if !bytes.Equal(persisted, rePersisted) {
		t.Fatalf("resumed queue differs from persisted:\n--- persisted\n%s\n--- resumed\n%s", persisted, rePersisted)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "queue.json")); !os.IsNotExist(err) {
		t.Fatal("queue file not consumed by resume")
	}

	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Drain(ctx)
	}()
	// The resumed jobs keep their IDs and run to the same results the
	// direct facade produces.
	if v := waitTerminal(t, ts2, pend1.ID); v.State != StateDone {
		t.Fatalf("resumed job 1: %s (%q)", v.State, v.Error)
	}
	if _, got := result(t, ts2, pend1.ID); got != want {
		t.Fatalf("resumed job result differs from direct run:\n%s", got)
	}
	if v := waitTerminal(t, ts2, pend2.ID); v.State != StateDone {
		t.Fatalf("resumed job 2: %s (%q)", v.State, v.Error)
	}
}

// Drain past its deadline cancels stragglers instead of hanging.
func TestDrainDeadlineCancelsRunning(t *testing.T) {
	cfg := fastCfg()
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long := JobSpec{Type: TypeSimulate, App: "ADM", Config: "32proc", Steps: 2000, NoCache: true}
	_, sub, _ := submit(t, ts, long)
	waitState(t, ts, sub.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("drain took %v; straggler not canceled", d)
	}
	if v := getJob(t, ts, sub.ID); v.State != StateCanceled || !strings.Contains(v.Error, "draining") {
		t.Fatalf("straggler: %s (%q)", v.State, v.Error)
	}
}

// Cancellation: queued jobs leave the queue; running jobs stop at the
// kernel's next interrupt check.
func TestCancelQueuedAndRunning(t *testing.T) {
	cfg := fastCfg()
	cfg.Workers = 1
	gate := make(chan struct{})
	s, ts := newTestServer(t, cfg, func(job *Job) error {
		if job.Spec.Seed == 1 {
			<-gate
		}
		return nil
	})
	blocking := smallSim
	blocking.Seed = 1
	blocking.NoCache = true
	_, blockSub, _ := submit(t, ts, blocking)
	waitState(t, ts, blockSub.ID, StateRunning)
	_, queuedSub, _ := submit(t, ts, smallSim)

	// Cancel the queued job: terminal immediately, queue slot freed.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queuedSub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := getJob(t, ts, queuedSub.ID); v.State != StateCanceled {
		t.Fatalf("queued cancel: %s", v.State)
	}
	if s.q.depth() != 0 {
		t.Fatalf("queue depth %d after queued cancel", s.q.depth())
	}

	// Cancel a long-running job mid-simulation.
	close(gate)
	waitTerminal(t, ts, blockSub.ID)
	long := JobSpec{Type: TypeSimulate, App: "ADM", Config: "32proc", Steps: 2000, NoCache: true}
	_, longSub, _ := submit(t, ts, long)
	waitState(t, ts, longSub.ID, StateRunning)
	cancelResp, err := http.Post(ts.URL+"/jobs/"+longSub.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelResp.Body.Close()
	v := waitTerminal(t, ts, longSub.ID)
	if v.State != StateCanceled {
		t.Fatalf("running cancel: %s (%q)", v.State, v.Error)
	}
}

// Service-level cache integrity: a corrupted entry is recomputed, not
// served.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	cacheDir := t.TempDir()
	cfg := fastCfg()
	cfg.CacheDir = cacheDir
	s, ts := newTestServer(t, cfg, nil)
	want := smallSimWant(t)

	_, sub, _ := submit(t, ts, smallSim)
	if v := waitTerminal(t, ts, sub.ID); v.State != StateDone {
		t.Fatalf("seed job: %s", v.State)
	}
	entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.entry"))
	if len(entries) != 1 {
		t.Fatalf("cache entries: %v", entries)
	}
	data, _ := os.ReadFile(entries[0])
	data[len(data)-2] ^= 0x20
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	status, sub2, _ := submit(t, ts, smallSim)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit over corrupt entry returned %d (served from corrupt cache?)", status)
	}
	v := waitTerminal(t, ts, sub2.ID)
	if v.State != StateDone || v.CacheHit {
		t.Fatalf("recompute: state %s cache_hit %v", v.State, v.CacheHit)
	}
	if _, got := result(t, ts, sub2.ID); got != want {
		t.Fatalf("recomputed result differs:\n%s", got)
	}
	if s.cache.Stats().Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
	if !strings.Contains(metricsText(t, ts), metricLine("cedar_serve_cache_corrupt_total", "1")) {
		t.Fatal("corruption not visible in /metrics")
	}
}

// A failed cache write serves the result in hand: the job runs once,
// finishes done with the same bytes as a local run, and the failure is
// counted.
func TestCacheWriteFailureServesResult(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	cfg := fastCfg()
	cfg.CacheDir = cacheDir
	s, ts := newTestServer(t, cfg, nil)
	want := smallSimWant(t)
	// A regular file where the cache directory was: every Put fails.
	if err := os.RemoveAll(cacheDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cacheDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	_, sub, _ := submit(t, ts, smallSim)
	v := waitTerminal(t, ts, sub.ID)
	if v.State != StateDone || v.CacheHit {
		t.Fatalf("state %s cache_hit %v (err %q)", v.State, v.CacheHit, v.Error)
	}
	if _, got := result(t, ts, sub.ID); got != want {
		t.Fatalf("result differs from a local run:\n%s", got)
	}
	runs := 0
	for _, ev := range v.Events {
		if strings.HasPrefix(ev.Msg, "simulated ") {
			runs++
		}
	}
	if runs != 1 {
		t.Fatalf("job simulated %d times, want 1: %+v", runs, v.Events)
	}
	if s.met.cacheWriteErr.Value() != 1 {
		t.Fatalf("cache write errors = %d, want 1", s.met.cacheWriteErr.Value())
	}
	if !strings.Contains(metricsText(t, ts), metricLine("cedar_serve_cache_write_errors_total", "1")) {
		t.Fatal("cache write error not visible in /metrics")
	}
}

// The progress stream yields NDJSON events ending in a state line.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, fastCfg(), nil)
	spec := JobSpec{Type: TypeSimulate, App: "FLO52", Config: "4proc", Steps: 2}
	_, sub, _ := submit(t, ts, spec)
	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 3 {
		t.Fatalf("stream too short: %v", lines)
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"state"`) || !strings.Contains(last, StateDone) {
		t.Fatalf("stream did not end with a done state line: %v", lines)
	}
	var sawProgress bool
	for _, l := range lines {
		if strings.Contains(l, "simulated FLO52 on 4proc: ct=") {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatalf("no simulation progress in stream: %v", lines)
	}
}

// A bench job is held to its document's expect: a recorded fault
// scenario replays as the outcome it declares, and a job whose outcome
// differs fails.
func TestBenchJobExpect(t *testing.T) {
	_, ts := newTestServer(t, fastCfg(), nil)
	for _, c := range []struct {
		doc, state, want string
	}{
		{okScenario, StateDone, "os_time_cycles"},
		{okScenario + "expect: ok\n", StateDone, "os_time_cycles"},
		{okScenario + "expect: deadlock\n", StateFailed, "outcome ok, want deadlock"},
	} {
		_, sub, _ := submit(t, ts, JobSpec{Type: TypeBench, Bench: c.doc})
		v := waitTerminal(t, ts, sub.ID)
		if v.State != c.state {
			t.Fatalf("doc %q: state %s (%q), want %s", c.doc, v.State, v.Error, c.state)
		}
		got := v.Error
		if v.State == StateDone {
			_, got = result(t, ts, sub.ID)
		}
		if !strings.Contains(got, c.want) {
			t.Fatalf("doc %q: %q does not mention %q", c.doc, got, c.want)
		}
	}
}

// Invalid submissions are rejected at the door with 400s that name the
// problem; unknown jobs are 404.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, fastCfg(), nil)
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Type: "simulate", App: "NOPE", Config: "8proc"}, "unknown app"},
		{JobSpec{Type: "simulate", App: "FLO52", Config: "9proc"}, "unknown configuration"},
		{JobSpec{Type: "simulate", App: "FLO52", Config: "8proc", Plan: "ce:99@1"}, "out of range"},
		{JobSpec{Type: "mystery"}, "unknown job type"},
		{JobSpec{}, "missing job type"},
		// The body is JSON, so the type's quotes arrive escaped.
		{JobSpec{Type: "sweep", App: "FLO52"}, `unknown job type \"sweep\" (want simulate or bench)`},
		{JobSpec{Type: "replay"}, `unknown job type \"replay\" (want simulate or bench)`},
		{JobSpec{Type: "corpus"}, `unknown job type \"corpus\" (want simulate or bench)`},
		{JobSpec{Type: "simulate", App: "FLO52", Config: "8proc", DeadlineMS: -1}, "deadline_ms"},
	}
	for _, c := range cases {
		status, _, body := submit(t, ts, c.spec)
		if status != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d body %s", c.spec, status, body)
		}
		if !strings.Contains(body, c.want) {
			t.Fatalf("spec %+v: body %q does not mention %q", c.spec, body, c.want)
		}
	}
	// A body past the limit is refused before it is parsed, with a
	// status and message that name the limit.
	huge := JobSpec{Type: "simulate", Workload: strings.Repeat("#", MaxBodyBytes), Config: "8proc"}
	status, _, body := submit(t, ts, huge)
	if status != http.StatusRequestEntityTooLarge || !strings.Contains(body, fmt.Sprint(MaxBodyBytes)) {
		t.Fatalf("oversized body: status %d body %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/jobs/j999999-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// A deadline-expired bench job surfaces its raw error instead of
// being mapped through scenario.Outcome —
// otherwise an expect: error document would accept the truncated run
// as a success and cache its payload.
func TestBenchInterruptedIsNotAnOutcome(t *testing.T) {
	spec := JobSpec{Type: TypeBench, Bench: okScenario + "expect: error\n"}
	r, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	payload, err := spec.execute(ctx, r, func(string) {})
	if err == nil {
		t.Fatalf("deadline-expired bench job reported success: %q", payload)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded to surface", err)
	}
}

// The cache key is the job shape, the version and the scenario's
// canonical text: a change to anything that runs is a different key,
// and two spellings of one experiment are the same key.
func TestCacheKeyIdentity(t *testing.T) {
	with := func(sp JobSpec, edit func(*JobSpec)) JobSpec { edit(&sp); return sp }
	bench := func(doc string) JobSpec { return JobSpec{Type: TypeBench, Bench: doc} }
	// okScenario's keys, commented and in another order.
	reordered := "# the same experiment, spelled differently\nplan: ce:1@76414\nseed: 3327910339796038169\n" +
		"scale: 1\n\nsteps: 1\nconfig: 8proc\napp: FLO52\nname: pgflt-kill\n"
	budgeted := okScenario + "max_cycles: 5000\n"
	cases := []struct {
		name string
		a, b JobSpec
		same bool
	}{
		// smallSim written as a bench document: the same text, another
		// payload encoding.
		{"type", smallSim, bench("name: simulate\napp: FLO52\nconfig: 8proc\nsteps: 2\nscale: 1\n"), false},
		{"app", smallSim, with(smallSim, func(sp *JobSpec) { sp.App = "ADM" }), false},
		{"workload", smallSim, with(smallSim, func(sp *JobSpec) { sp.App, sp.Workload = "", "gen:seed=7" }), false},
		{"workload edit", with(smallSim, func(sp *JobSpec) { sp.App, sp.Workload = "", "gen:seed=7" }),
			with(smallSim, func(sp *JobSpec) { sp.App, sp.Workload = "", "gen:seed=8" }), false},
		{"config", smallSim, with(smallSim, func(sp *JobSpec) { sp.Config = "4proc" }), false},
		{"steps", smallSim, with(smallSim, func(sp *JobSpec) { sp.Steps = 3 }), false},
		{"seed", smallSim, with(smallSim, func(sp *JobSpec) { sp.Seed = 7 }), false},
		{"plan", smallSim, with(smallSim, func(sp *JobSpec) { sp.Plan = "ce:1@76414" }), false},
		{"simulate max_cycles", smallSim, with(smallSim, func(sp *JobSpec) { sp.MaxCycles = 1000 }), false},
		{"bench document", bench(okScenario), bench(strings.Replace(okScenario, "steps: 1", "steps: 2", 1)), false},
		{"bench max_cycles", bench(okScenario), with(bench(okScenario), func(sp *JobSpec) { sp.MaxCycles = 1000 }), false},
		// A bench job's max_cycles only tightens the document's own
		// budget: the smaller non-zero value runs.
		{"tighter spec budget", bench(budgeted), with(bench(budgeted), func(sp *JobSpec) { sp.MaxCycles = 1000 }), false},
		{"looser spec budget", bench(budgeted), with(bench(budgeted), func(sp *JobSpec) { sp.MaxCycles = 1e9 }), true},
		{"padded plan", with(smallSim, func(sp *JobSpec) { sp.Plan = "ce:1@76414" }),
			with(smallSim, func(sp *JobSpec) { sp.Plan = " ce:1@76414 ," }), true},
		{"commented, reordered bench document", bench(okScenario), bench(reordered), true},
	}
	for _, tc := range cases {
		var ids [2]string
		for i, sp := range []JobSpec{tc.a, tc.b} {
			sc, err := sp.Validate()
			if err != nil {
				t.Fatalf("%s: spec %+v: %v", tc.name, sp, err)
			}
			ids[i] = sp.cacheKey(sc, "v").ID()
		}
		if same := ids[0] == ids[1]; same != tc.same {
			t.Errorf("%s: keys equal = %v, want %v", tc.name, same, tc.same)
		}
	}
}

// The fault-plan path: a plan validated at submit runs degraded and
// its result is cached and reproducible.
func TestSimulateWithFaultPlan(t *testing.T) {
	cfg := fastCfg()
	cfg.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg, nil)
	spec := JobSpec{Type: TypeSimulate, App: "FLO52", Config: "8proc", Steps: 1,
		Seed: 3327910339796038169, Plan: "ce:1@76414"}
	_, sub, _ := submit(t, ts, spec)
	v := waitTerminal(t, ts, sub.ID)
	if v.State != StateDone {
		t.Fatalf("fault job: %s (%q)", v.State, v.Error)
	}
	_, first := result(t, ts, sub.ID)
	status, sub2, _ := submit(t, ts, spec)
	if status != http.StatusOK || !sub2.CacheHit {
		t.Fatalf("fault-plan resubmit not served from cache: %d", status)
	}
	if _, second := result(t, ts, sub2.ID); second != first {
		t.Fatal("cached fault result differs from computed one")
	}
	if !strings.Contains(first, "failed_ces=1") {
		t.Fatalf("degraded result does not show the failed CE:\n%s", first)
	}
}

// The registry gate: the three metric endpoints render the same
// snapshot vocabulary, and a finished job record carries the scalar
// snapshot it completed under.
func TestMetricsEndpointsAndJobSnapshot(t *testing.T) {
	cfg := fastCfg()
	cfg.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg, nil)

	_, sr, _ := submit(t, ts, smallSim)
	waitTerminal(t, ts, sr.ID)

	v := getJob(t, ts, sr.ID)
	if v.Metrics == nil {
		t.Fatal("finished job has no metric snapshot")
	}
	if v.Metrics["serve_jobs_done_total"] < 1 {
		t.Fatalf("job snapshot serve_jobs_done_total = %g, want >= 1", v.Metrics["serve_jobs_done_total"])
	}
	if _, ok := v.Metrics["serve_cache_misses_total"]; !ok {
		t.Fatalf("job snapshot missing cache metrics: %v", v.Metrics)
	}

	// JSON and CSV endpoints expose the same registry as /metrics.
	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]float64{}
	for _, m := range doc.Metrics {
		if m.Value != nil {
			names[m.Name] = *m.Value
		}
	}
	if names["serve_jobs_submitted_total"] != 1 {
		t.Fatalf("/metrics.json serve_jobs_submitted_total = %g, want 1", names["serve_jobs_submitted_total"])
	}
	if !strings.Contains(metricsText(t, ts), metricLine("cedar_serve_jobs_submitted_total", "1")) {
		t.Fatal("/metrics disagrees with /metrics.json on serve_jobs_submitted_total")
	}

	resp, err = http.Get(ts.URL + "/metrics.csv")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(raw), "metric,type,unit,key1,key2,value\n") {
		t.Fatalf("/metrics.csv header:\n%s", raw)
	}
	if !strings.Contains(string(raw), "serve_jobs_submitted_total,counter,,,,1\n") {
		t.Fatalf("/metrics.csv missing submitted counter:\n%s", raw)
	}
}

// benchDoc is a tiny scenario document for bench jobs.
const benchDoc = "name: bench-flo52-tiny\napp: FLO52\nconfig: 1proc\nsteps: 1\n"

// A bench job runs a scenario document, returns the canonical capture
// encoding (byte-identical to a direct scenario run), and caches it
// like every other job kind.
func TestBenchJob(t *testing.T) {
	sc, err := scenario.Parse("bench", []byte(benchDoc))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := scenario.Run(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := scenario.EncodeCapture(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantBytes)

	cfg := fastCfg()
	cfg.CacheDir = t.TempDir()
	_, ts := newTestServer(t, cfg, nil)

	spec := JobSpec{Type: TypeBench, Bench: benchDoc}
	status, sr, raw := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("bench submit: status %d (%s)", status, raw)
	}
	v := waitTerminal(t, ts, sr.ID)
	if v.State != StateDone || v.CacheHit {
		t.Fatalf("bench job: state %s cache_hit %v (err %q)", v.State, v.CacheHit, v.Error)
	}
	code, got := result(t, ts, sr.ID)
	if code != 200 || got != want {
		t.Fatalf("bench result differs from direct scenario run (status %d):\n%s", code, got)
	}
	// The payload is a well-formed capture with stamped identity.
	parsed, err := scenario.ReadCapture(strings.NewReader(got))
	if err != nil {
		t.Fatalf("bench result is not a capture: %v", err)
	}
	if len(parsed) == 0 || parsed[0].Scenario != "bench-flo52-tiny" {
		t.Fatalf("capture records = %+v", parsed)
	}

	// Warm resubmit: content-addressed cache hit on the document text.
	status, sr2, raw := submit(t, ts, spec)
	if status != http.StatusOK || !sr2.CacheHit {
		t.Fatalf("warm bench submit: status %d body %s", status, raw)
	}
	if _, got2 := result(t, ts, sr2.ID); got2 != want {
		t.Fatal("cached bench result differs")
	}

	// A different document is a different cache key.
	other := JobSpec{Type: TypeBench, Bench: benchDoc + "seed: 7\n"}
	if status, sr3, _ := submit(t, ts, other); status != http.StatusAccepted {
		t.Fatalf("distinct bench doc unexpectedly hit the cache (status %d)", status)
	} else {
		waitTerminal(t, ts, sr3.ID)
	}
}

// A bench job with an invalid scenario document is rejected at submit.
func TestBenchJobRejectsBadDocument(t *testing.T) {
	_, ts := newTestServer(t, fastCfg(), nil)
	for _, doc := range []string{"", "app: NOPE\nconfig: 8proc\n", "app: FLO52\nconfig: 8proc\nbogus: 1\n"} {
		status, _, raw := submit(t, ts, JobSpec{Type: TypeBench, Bench: doc})
		if status != http.StatusBadRequest {
			t.Fatalf("bad bench doc %q: status %d (%s)", doc, status, raw)
		}
	}
}

// The retention bound: a server that has run more jobs than
// maxFinishedJobs keeps only the newest terminal records. The oldest
// IDs answer 404, the newest stay readable, and resubmitting an
// evicted job's spec is still a warm cache hit.
func TestFinishedJobsBounded(t *testing.T) {
	cfg := fastCfg()
	cfg.CacheDir = t.TempDir()
	s, ts := newTestServer(t, cfg, nil)
	want := smallSimWant(t)

	_, cold, _ := submit(t, ts, smallSim)
	if v := waitTerminal(t, ts, cold.ID); v.State != StateDone {
		t.Fatalf("cold job: %s (%s)", v.State, v.Error)
	}
	var newest string
	for i := 0; i < maxFinishedJobs+10; i++ {
		status, sr, raw := submit(t, ts, smallSim)
		if status != http.StatusOK || !sr.CacheHit {
			t.Fatalf("warm submit %d: status %d body %s", i, status, raw)
		}
		newest = sr.ID
	}
	s.mu.Lock()
	kept, finished := len(s.jobs), len(s.finished)
	s.mu.Unlock()
	if kept != maxFinishedJobs || finished != maxFinishedJobs {
		t.Fatalf("server keeps %d jobs (%d finished), want %d", kept, finished, maxFinishedJobs)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + cold.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job: status %d, want 404", resp.StatusCode)
	}
	if code, got := result(t, ts, newest); code != http.StatusOK || got != want {
		t.Fatalf("newest job result: status %d\n%s", code, got)
	}
	if status, sr, raw := submit(t, ts, smallSim); status != http.StatusOK || !sr.CacheHit {
		t.Fatalf("resubmit after eviction: status %d body %s", status, raw)
	}
}
