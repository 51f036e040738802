package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/perfect"
	"repro/internal/serve"
)

// servedMix drives an in-process service over loopback HTTP with a
// closed loop of clients: each sends its next simulate job only after
// the previous result arrived, as callers that wait for their reply do.
// Two jobs in five repeat one of the client's earlier specs (a warm
// cache hit at submit); the rest use a fresh kernel seed (queue,
// simulate, cache write).
type servedMix struct {
	e       *env
	dir     string
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	base    string
	http    *http.Client
	clients []*client

	mu      sync.Mutex
	digests map[jobSpec]string // digest of each distinct spec's result
	jobs    map[*phase][]jobRec
	heap    map[*phase]float64 // heap growth per job, KiB
	views   map[string]serve.JobView
	cache   map[string]float64 // the service's result-cache counters
}

// jobSpec is one simulate job: an application on a configuration with a
// kernel seed, one timestep.
type jobSpec struct {
	App, Config string
	Seed        int64
}

type jobRec struct {
	spec   jobSpec
	id     string
	op     int // the job's span ID (traced)
	warm   bool
	lat    float64 // submit → result bytes, seconds
	submit float64 // the POST alone, seconds
}

// client generates one closed-loop client's spec sequence from the run
// seed. Two jobs in five repeat one of the client's completed specs:
// below one half, the median latency falls among the cold jobs instead
// of in the gap between the warm and the cold mode, where it would jump.
// Fresh specs cycle through every application × configuration in a
// shuffled order, so every seed offers the same mix.
type client struct {
	seed  int64
	rng   *rand.Rand
	cycle []jobSpec
	next  int
	sent  int
	fresh int
	done  []jobSpec // completed specs, which repeats draw from
}

func setupServedMix(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.tmp, "served-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: workers, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &servedMix{e: e, dir: dir, srv: srv, served: make(chan struct{}),
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		http:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}},
		digests: map[jobSpec]string{}, jobs: map[*phase][]jobRec{}, heap: map[*phase]float64{}}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	var combos []jobSpec
	for _, app := range perfect.Apps() {
		for _, cfg := range []string{arch.Cedar4.Name, arch.Cedar8.Name} {
			combos = append(combos, jobSpec{App: app.Name, Config: cfg})
		}
	}
	for i := 0; i < workers; i++ {
		seed := hashSeed(e.cfg.seed, "served-mix client", i)
		s.clients = append(s.clients, &client{seed: seed, rng: rand.New(rand.NewSource(seed)),
			cycle: append([]jobSpec(nil), combos...), next: len(combos)})
	}
	return s, nil
}

func (c *client) nextSpec() jobSpec {
	c.sent++
	if len(c.done) > 0 && c.sent%5 < 2 {
		return c.done[c.rng.Intn(len(c.done))]
	}
	if c.next == len(c.cycle) {
		c.rng.Shuffle(len(c.cycle), func(i, j int) { c.cycle[i], c.cycle[j] = c.cycle[j], c.cycle[i] })
		c.next = 0
	}
	sp := c.cycle[c.next]
	c.next++
	c.fresh++
	sp.Seed = hashSeed(c.seed, c.fresh)
	return sp
}

func (s *servedMix) measure(ctx context.Context, ph *phase) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for first := true; first || time.Now().Before(ph.deadline); first = false {
				s.job(ctx, ph, c)
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start).Seconds()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.heap[ph] = ratio(float64(after.HeapAlloc)-float64(before.HeapAlloc), float64(len(s.jobs[ph]))) / 1024
}

// job runs one closed-loop round trip: submit, stream the job's events
// to its end, fetch the result.
func (s *servedMix) job(ctx context.Context, ph *phase, c *client) {
	sp := c.nextSpec()
	s.e.op()
	rec := jobRec{spec: sp}
	var body []byte
	var err error
	lat := ph.tr.span("serve.job", 0, func(op int) {
		rec.op = op
		var sub struct {
			ID       string `json:"id"`
			CacheHit bool   `json:"cache_hit"`
		}
		rec.submit = ph.tr.span("http.POST /jobs", op, func(int) {
			spec, _ := json.Marshal(serve.JobSpec{Type: serve.TypeSimulate, App: sp.App, Config: sp.Config,
				Steps: 1, Seed: sp.Seed})
			var resp []byte
			if resp, err = s.call(ctx, http.MethodPost, "/jobs", spec); err == nil {
				err = json.Unmarshal(resp, &sub)
			}
		}).Seconds()
		if err != nil {
			return
		}
		rec.id, rec.warm = sub.ID, sub.CacheHit
		ph.tr.span("http.GET /jobs/{id}/events", op, func(int) { err = s.stream(ctx, sub.ID) })
		if err != nil {
			return
		}
		ph.tr.span("http.GET /jobs/{id}/result", op, func(int) {
			body, err = s.call(ctx, http.MethodGet, "/jobs/"+sub.ID+"/result", nil)
		})
	})
	if err != nil {
		s.e.fail("job %+v: %v", sp, err)
		return
	}
	rec.lat = lat.Seconds()
	c.done = append(c.done, sp)
	sum := digest(string(body))
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.digests[sp]; ok && prev != sum {
		s.e.fail("job %+v: a repeat returned different bytes", sp)
		return
	}
	s.digests[sp] = sum
	ph.lat = append(ph.lat, rec.lat)
	ph.sims++
	s.jobs[ph] = append(s.jobs[ph], rec)
}

// call makes one request and returns the body of a 2xx response.
func (s *servedMix) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// stream reads a job's NDJSON event stream to its end and checks the
// terminal state.
func (s *servedMix) stream(ctx context.Context, id string) error {
	data, err := s.call(ctx, http.MethodGet, "/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	var last struct {
		State string `json:"state"`
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("event stream: %w", err)
		}
	}
	if last.State != serve.StateDone {
		return fmt.Errorf("job %s ended %q", id, last.State)
	}
	return nil
}

// finish checks every distinct spec the service answered against a
// local simulation of it, which also gives the work the service's cold
// jobs did, and reads the job records and cache counters.
func (s *servedMix) finish(ctx context.Context, phases []*phase) []counts {
	specs := make([]jobSpec, 0, len(s.digests))
	for sp := range s.digests {
		specs = append(specs, sp)
	}
	type ref struct {
		sum string
		c   counts
		err error
	}
	refs := engine.Map(workers, specs, func(_ int, sp jobSpec) ref {
		app, err := (perfect.Resolver{}).Resolve(sp.App)
		if err != nil {
			return ref{err: err}
		}
		cfg, _ := arch.FamilyByName(sp.Config)
		run, err := cedar.SimulateRunCtx(ctx, app, cfg, cedar.Options{Steps: 1, Seed: sp.Seed})
		if err != nil {
			return ref{err: err}
		}
		return ref{sum: digest(run.StatfxText()), c: countsOf(run)}
	})
	work := map[jobSpec]counts{}
	for i, sp := range specs {
		switch r := refs[i]; {
		case r.err != nil:
			s.e.fail("local run of %+v: %v", sp, r.err)
		case r.sum != s.digests[sp]:
			s.e.fail("job %+v: served result differs from a local StatfxText", sp)
		default:
			work[sp] = r.c
		}
	}

	if err := s.readService(ctx); err != nil {
		s.e.fail("%v", err)
	}
	out := make([]counts, len(phases))
	for i, ph := range phases {
		for _, j := range s.jobs[ph] {
			out[i].cacheGets++ // the submit-time lookup
			if j.warm {
				continue
			}
			c := work[j.spec]
			c.statfx, c.cacheGets, c.cachePuts = 1, 1, 1 // render, worker lookup, write
			out[i].add(c)
			if v, ok := s.views[j.id]; ok && ph.tr != nil && v.StartedAt != nil && v.FinishedAt != nil {
				ph.tr.add(span{Name: "serve.exec", Start: ph.tr.at(*v.StartedAt), End: ph.tr.at(*v.FinishedAt), Parent: j.op})
			}
		}
	}
	return out
}

// readService fetches every job record and the result-cache counters.
func (s *servedMix) readService(ctx context.Context) error {
	data, err := s.call(ctx, http.MethodGet, "/jobs", nil)
	if err != nil {
		return err
	}
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return fmt.Errorf("job list: %w", err)
	}
	s.views = map[string]serve.JobView{}
	for _, v := range list.Jobs {
		s.views[v.ID] = v
	}
	if data, err = s.call(ctx, http.MethodGet, "/metrics.json", nil); err != nil {
		return err
	}
	var snap struct {
		Metrics []struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	s.cache = map[string]float64{}
	for _, m := range snap.Metrics {
		if m.Value != nil {
			s.cache[m.Name] = *m.Value
		}
	}
	if n := s.cache["serve_cache_corrupt_total"]; n > 0 {
		return fmt.Errorf("result cache reported %v corrupt entries", n)
	}
	return nil
}

func (s *servedMix) report(m metricSet, main, _ *phase) {
	var warm, cold, submit, queue, exec []float64
	for _, j := range s.jobs[main] {
		submit = append(submit, j.submit)
		if j.warm {
			warm = append(warm, j.lat)
			continue
		}
		cold = append(cold, j.lat)
		if v, ok := s.views[j.id]; ok && v.StartedAt != nil && v.FinishedAt != nil {
			queue = append(queue, v.StartedAt.Sub(v.SubmittedAt).Seconds())
			exec = append(exec, v.FinishedAt.Sub(*v.StartedAt).Seconds())
		}
	}
	n := len(main.lat)
	m.set("serve.latency_p99_ms", quantile(main.lat, 0.99)*1e3, "ms", n)
	m.set("serve.submit_p50_ms", median(submit)*1e3, "ms", len(submit))
	m.set("serve.warm_p50_ms", median(warm)*1e3, "ms", len(warm))
	m.set("serve.cold_p50_ms", median(cold)*1e3, "ms", len(cold))
	m.set("serve.queue_wait_p50_ms", median(queue)*1e3, "ms", len(queue))
	m.set("serve.queue_wait_p99_ms", quantile(queue, 0.99)*1e3, "ms", len(queue))
	m.set("serve.exec_p50_ms", median(exec)*1e3, "ms", len(exec))
	m.set("serve.heap_kb_per_job", s.heap[main], "KiB", n)
	hits, misses := s.cache["serve_cache_hits_total"], s.cache["serve_cache_misses_total"]
	m.set("resultcache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	m.set("resultcache.lookups", hits+misses, "count", 0)
	m.set("resultcache.corrupt", s.cache["serve_cache_corrupt_total"], "count", 0)
}

func (s *servedMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(s.hs.Shutdown(ctx), s.srv.Drain(ctx))
	<-s.served
	s.http.CloseIdleConnections()
	if err != nil {
		s.e.fail("service shutdown: %v", err)
	}
	if err := os.RemoveAll(s.dir); err != nil {
		s.e.fail("%v", err)
	}
}
