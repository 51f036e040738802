package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/perfect"
	"repro/internal/serve"
)

// remoteWorkload derives the inline workload a -server run submits for
// the -app source src, which resolved to app. A registry name travels
// as the job's app name, so the result is empty. Every other source — a
// gen: spec, a .workload path, an inline document — travels as the
// app's canonical document text: the server never reads client-side
// paths, and one workload caches under one result-cache key however
// the command line spelled it.
func remoteWorkload(src string, app perfect.App) string {
	if slices.Contains(perfect.KnownApps(), src) {
		return ""
	}
	return string(perfect.PrintWorkload(app))
}

// runRemote submits the invocation to a cedarserved instance as a
// simulate job, polls it to a terminal state, and prints the job's
// canonical statfx result — byte-identical to what -statfx prints
// locally for the same app, configuration, steps, and plan. A
// non-empty workload is the inline document or gen: spec to submit in
// place of the registry name, so the server never resolves (or caches
// under) a name it doesn't know.
func runRemote(server string, app perfect.App, workload string, cfg arch.Config, steps int, faultSpec string) {
	base := strings.TrimRight(server, "/")
	spec := serve.JobSpec{
		Type:   serve.TypeSimulate,
		Config: cfg.Name,
		Steps:  steps,
		Plan:   faultSpec,
	}
	if workload != "" {
		spec.Workload = workload
	} else {
		spec.App = app.Name
	}
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: submitting to %s: %v\n", server, err)
		os.Exit(1)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		retry := resp.Header.Get("Retry-After")
		fmt.Fprintf(os.Stderr, "cedarsim: server busy (%s, retry after %ss): %s\n",
			resp.Status, retry, strings.TrimSpace(string(raw)))
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "cedarsim: submit rejected (%s): %s\n",
			resp.Status, strings.TrimSpace(string(raw)))
		os.Exit(1)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.ID == "" {
		fmt.Fprintf(os.Stderr, "cedarsim: bad submit response: %s\n", raw)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cedarsim: job %s %s\n", sub.ID, sub.State)

	// Poll to a terminal state (a cache hit arrives already done).
	state := sub.State
	var jobErr, jobPanic string
	for state == "queued" || state == "running" {
		time.Sleep(100 * time.Millisecond)
		jr, err := http.Get(base + "/jobs/" + sub.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cedarsim: polling job %s: %v\n", sub.ID, err)
			os.Exit(1)
		}
		var view struct {
			State string `json:"state"`
			Error string `json:"error"`
			Panic string `json:"panic"`
		}
		jerr := json.NewDecoder(jr.Body).Decode(&view)
		jr.Body.Close()
		if jerr != nil {
			fmt.Fprintf(os.Stderr, "cedarsim: polling job %s: %v\n", sub.ID, jerr)
			os.Exit(1)
		}
		state, jobErr, jobPanic = view.State, view.Error, view.Panic
	}
	if state != "done" {
		msg := jobErr
		if jobPanic != "" {
			msg = fmt.Sprintf("%s (panic: %s)", msg, jobPanic)
		}
		fmt.Fprintf(os.Stderr, "cedarsim: job %s %s: %s\n", sub.ID, state, msg)
		os.Exit(1)
	}
	rr, err := http.Get(base + "/jobs/" + sub.ID + "/result")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: fetching result: %v\n", err)
		os.Exit(1)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(rr.Body)
		fmt.Fprintf(os.Stderr, "cedarsim: result %s: %s\n", rr.Status, payload)
		os.Exit(1)
	}
	if _, err := io.Copy(os.Stdout, rr.Body); err != nil {
		fmt.Fprintf(os.Stderr, "cedarsim: %v\n", err)
		os.Exit(1)
	}
}
