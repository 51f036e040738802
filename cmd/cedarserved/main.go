// Command cedarserved is the hardened, long-running simulation service:
// an HTTP/JSON daemon that accepts simulate and bench (scenario
// document) jobs, runs them on a bounded worker pool through the
// deterministic engine, memoizes results in a crash-safe content-addressed cache,
// and survives the operational failure modes a batch CLI never meets —
// overload (bounded queue, 429 + Retry-After), wedged jobs (per-job
// wall-clock deadlines threaded into the simulation kernel), crashing
// jobs (panic isolation with the stack in the job record), a failing
// cache disk (the result in hand is served anyway), and restarts
// (SIGTERM drains running jobs and persists the pending queue; the next
// process resumes it). Jobs are deterministic, so each runs once: a
// failure is final, never retried.
//
// Usage:
//
//	cedarserved [-addr :8344] [-cache-dir DIR] [-state-dir DIR]
//	            [-queue-depth N] [-workers N] [-deadline 2m]
//	            [-max-deadline 10m] [-drain-timeout 30s] [-version V]
//
// Endpoints (see internal/serve):
//
//	POST   /jobs              submit; GET /jobs lists; GET /jobs/{id}
//	GET    /jobs/{id}/result  canonical statfx result text
//	GET    /jobs/{id}/events  NDJSON progress stream
//	POST   /jobs/{id}/cancel  cancel queued or running work
//	GET    /metrics           Prometheus text exposition
//	GET    /healthz           200 serving / 503 draining
//
// Submit jobs with cedarsim -server http://host:8344, or curl:
//
//	curl -d '{"type":"simulate","app":"FLO52","config":"8proc"}' :8344/jobs
//
// On SIGTERM or SIGINT the daemon stops admission (503), drains
// running jobs up to -drain-timeout, cancels stragglers, persists the
// pending queue under -state-dir, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Connection timeouts. No write timeout: GET /jobs/{id}/events streams
// until the job ends, however long that takes.
const (
	readHeaderTimeout = 10 * time.Second  // slow-header clients
	readTimeout       = 30 * time.Second  // whole request, body included
	idleTimeout       = 120 * time.Second // keep-alive between requests
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	cacheDir := flag.String("cache-dir", "", "result-cache directory (empty = caching off)")
	stateDir := flag.String("state-dir", "", "state directory for the persisted pending queue (empty = no persistence)")
	queueDepth := flag.Int("queue-depth", 0, "pending-job queue bound (0 = default 64); a full queue answers 429")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", 0, "default per-job wall-clock deadline (0 = 2m)")
	maxDeadline := flag.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = 10m)")
	drainTimeout := flag.Duration("drain-timeout", 0, "how long SIGTERM waits for running jobs (0 = 30s)")
	version := flag.String("version", "dev", "code version stamped into cache keys")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cedarserved: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	s, err := serve.New(serve.Config{
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainTimeout:    *drainTimeout,
		CacheDir:        *cacheDir,
		StateDir:        *stateDir,
		Version:         *version,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarserved: %v\n", err)
		os.Exit(1)
	}
	s.Start()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)

	select {
	case err := <-serveErr:
		// The listener died on its own — that is a crash, not a drain.
		fmt.Fprintf(os.Stderr, "cedarserved: %v\n", err)
		os.Exit(1)
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "cedarserved: %v: draining (queue persists to %q)\n", sig, *stateDir)
	}

	// Drain first so admission stops and running jobs settle, then shut
	// the listener down under its own short deadline (the API answers
	// 503 throughout).
	drainErr := s.Drain(context.Background())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		hs.Close()
	}
	<-serveErr
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "cedarserved: drain: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "cedarserved: drained cleanly")
}
