package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/perfect"
)

// TestMain lets a test run the command itself: with CEDARSIM_MAIN set,
// the test binary behaves as cedarsim on the arguments after "--".
func TestMain(m *testing.M) {
	if os.Getenv("CEDARSIM_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"cedarsim"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cedarsim runs the command and returns its exit status, stdout, and
// stderr.
func cedarsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "CEDARSIM_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// A run on a custom parametric machine cannot be recorded — a scenario
// names its machine — so -record-scenario refuses it as a bad
// invocation before anything simulates.
func TestRecordScenarioRefusesCustomMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.scenario")
	code, stdout, stderr := cedarsim(t, "-clusters", "2", "-ces-per-cluster", "4", "-steps", "1",
		"-fault", "ce:1@76414", "-record-scenario", path)
	if code != 2 || !strings.Contains(stderr, "named configuration") {
		t.Fatalf("exit %d, stderr %q; want 2 naming the need for a named configuration", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("a simulation ran before the refusal:\n%s", stdout)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused recording left a file: %v", err)
	}
}

// A generated app is not in the registry, so the recording inlines it
// as a workload block; the document replays through -scenario, and a
// second recording never overwrites it.
func TestRecordScenarioInlinesGeneratedApp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen7.scenario")
	record := []string{"-app", "gen:seed=7", "-config", "8proc", "-steps", "1",
		"-fault", "ce:1@76414", "-record-scenario", path}
	if code, _, stderr := cedarsim(t, record...); code != 0 {
		t.Fatalf("recording: exit %d, stderr %q", code, stderr)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "\nworkload:\n  workload: gen7\n") || strings.Contains(string(doc), "\napp:") {
		t.Fatalf("generated app not inlined:\n%s", doc)
	}
	if code, stdout, stderr := cedarsim(t, "-scenario", path); code != 0 || !strings.Contains(stdout, `"scenario":"gen7"`) {
		t.Fatalf("replay: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	code, _, stderr := cedarsim(t, record...)
	if code != 2 || !strings.Contains(stderr, "file exists") {
		t.Fatalf("re-recording: exit %d, stderr %q; want 2, file exists", code, stderr)
	}
	if again, _ := os.ReadFile(path); !bytes.Equal(again, doc) {
		t.Fatal("re-recording changed the existing document")
	}
}

// -scenario takes a directory too: the scaling study prints its
// committed capture byte for byte at any -parallel.
func TestScenarioDirPrintsCapture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "scaling", "BENCH_scaling.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "2"} {
		code, stdout, stderr := cedarsim(t, "-scenario", filepath.Join("..", "..", "testdata", "scaling"), "-parallel", parallel)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d, stderr %q", parallel, code, stderr)
		}
		if stdout != string(want) {
			t.Fatalf("-parallel %s: capture differs from BENCH_scaling.json:\n%s", parallel, stdout)
		}
	}
}

// hpmRun runs FLO52 on 8 CEs for one step in process, armed as -hpm
// arms it, under the given fault plan.
func hpmRun(t *testing.T, plan string) *cedar.Run {
	t.Helper()
	opts := cedar.Options{Steps: 1, TraceCapacity: 1 << 22}
	if plan != "" {
		var err error
		if opts.Faults, err = faults.Parse(plan); err != nil {
			t.Fatal(err)
		}
	}
	run, err := cedar.SimulateRunCtx(context.Background(), perfect.FLO52(), arch.Cedar8, opts)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// metric is one entry of a -metrics JSON snapshot.
type metric struct {
	Value float64
	Cells []struct {
		Labels []string
		Value  float64
	}
}

// exportRun runs cedarsim with -metrics to a .json file and -hpm to a
// .txt file, and returns the decoded snapshot by name and the trace
// lines.
func exportRun(t *testing.T, args ...string) (map[string]metric, []string) {
	t.Helper()
	dir := t.TempDir()
	mpath, hpath := filepath.Join(dir, "m.json"), filepath.Join(dir, "h.txt")
	if code, _, stderr := cedarsim(t, append(args, "-metrics", mpath, "-hpm", hpath)...); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name string
			metric
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	snap := map[string]metric{}
	for _, m := range doc.Metrics {
		snap[m.Name] = m.metric
	}
	trace, err := os.ReadFile(hpath)
	if err != nil {
		t.Fatal(err)
	}
	return snap, strings.Split(strings.TrimSuffix(string(trace), "\n"), "\n")
}

// eventCounts maps each hpm_events_total cell's event name to its
// count.
func eventCounts(snap map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for _, c := range snap["hpm_events_total"].Cells {
		out[c.Labels[0]] = c.Value
	}
	return out
}

// The run's cedarhpm summary is its -metrics snapshot: with -hpm it
// carries the monitor's event counts and the size of the offloaded
// trace, and its hardware counters cover every module and cluster.
func TestHPMSummaryCounts(t *testing.T) {
	snap, lines := exportRun(t, "-app", "FLO52", "-ces", "8", "-steps", "1", "-no-baseline")
	run := hpmRun(t, "")
	counts := eventCounts(snap)
	for ev := hpm.EventID(0); ev < hpm.NumEvents; ev++ {
		if got, want := counts[ev.String()], float64(run.Monitor.Count(ev)); got != want {
			t.Errorf("hpm_events_total{%s} = %g, monitor counted %g", ev, got, want)
		}
	}
	records := len(run.Monitor.Trace())
	if snap["ct_cycles"].Value != float64(run.Result.CT) || snap["hpm_trace_records_total"].Value != float64(records) ||
		len(lines) != records || snap["hpm_trace_dropped_total"].Value != 0 {
		t.Errorf("ct %g records %g (%d lines) dropped %g; want %d %d 0", snap["ct_cycles"].Value,
			snap["hpm_trace_records_total"].Value, len(lines), snap["hpm_trace_dropped_total"].Value, run.Result.CT, records)
	}
	if n := len(snap["gm_module_utilization"].Cells); n != arch.Cedar8.GMModules {
		t.Errorf("gm_module_utilization has %d cells, want %d", n, arch.Cedar8.GMModules)
	}
	if n := len(snap["cache_hits_total"].Cells); n != arch.Cedar8.Clusters {
		t.Errorf("cache_hits_total has %d cells, want %d", n, arch.Cedar8.Clusters)
	}
	hot := snap["net_hottest_port_delay_cycles"].Cells
	if snap["net_reservations_total"].Value == 0 || len(hot) != 1 || hot[0].Labels[0] == "" ||
		snap["faults_sequential_total"].Value+snap["faults_concurrent_total"].Value == 0 {
		t.Errorf("hardware counters left empty: reservations %g, hottest port %v",
			snap["net_reservations_total"].Value, hot)
	}
}

// -hpm writes the raw trace, one line per record, whatever the
// extension.
func TestHPMRecordDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hpm.json")
	if code, _, stderr := cedarsim(t, "-app", "FLO52", "-ces", "8", "-steps", "1", "-no-baseline", "-hpm", path); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	trace := hpmRun(t, "").Monitor.Trace()
	if len(lines) != len(trace) {
		t.Fatalf("%d lines for %d trace records", len(lines), len(trace))
	}
	for i, rec := range trace {
		if want := fmt.Sprintf("%d %d %s %d", rec.At, rec.CE, rec.Event, rec.Aux); lines[i] != want {
			t.Fatalf("line %d = %q, want %q", i+1, lines[i], want)
		}
	}
}

// With -fault, -metrics and -hpm export the degraded run.
func TestHPMExportsDegradedRun(t *testing.T) {
	const plan = "ce:1@76414"
	snap, lines := exportRun(t, "-app", "FLO52", "-ces", "8", "-steps", "1", "-fault", plan)
	run := hpmRun(t, plan)
	if ct := snap["ct_cycles"].Value; ct != float64(run.Result.CT) || ct == float64(hpmRun(t, "").Result.CT) {
		t.Fatalf("exported %g cycles; the degraded run took %d", ct, run.Result.CT)
	}
	if eventCounts(snap)[hpm.EvFaultInject.String()] == 0 {
		t.Fatalf("no fault-inject events in the export: %v", eventCounts(snap))
	}
	if len(lines) != len(run.Monitor.Trace()) {
		t.Fatalf("%d trace lines; the degraded run recorded %d", len(lines), len(run.Monitor.Trace()))
	}
}

// faultPlans are the degraded FLO52 8proc runs the -fault tests set
// against the healthy machine: a fail-stop, a slowed CE with a slowed
// module, and a paging storm with a global kernel-lock stall.
var faultPlans = []string{"ce:5@1e5", "ce:2x2@5e4,module:7x3@1e5", "storm:0@1e5,lock:-1@5e4+1e4"}

// faultReport runs the -fault comparison for plan at the given
// -parallel and returns its stdout.
func faultReport(t *testing.T, plan, parallel string) string {
	t.Helper()
	code, stdout, stderr := cedarsim(t, "-app", "FLO52", "-config", "8proc", "-steps", "1",
		"-fault", plan, "-parallel", parallel)
	if code != 0 || !strings.Contains(stdout, "Degraded-mode comparison") {
		t.Fatalf("-fault %s: exit %d, stderr %q, stdout:\n%s", plan, code, stderr, stdout)
	}
	return stdout
}

func TestFaultReportDeterministic(t *testing.T) {
	for _, plan := range faultPlans {
		if a, b := faultReport(t, plan, "1"), faultReport(t, plan, "1"); a != b {
			t.Fatalf("-fault %s: reports differ between identical runs:\n%s\nvs\n%s", plan, a, b)
		}
	}
}

func TestFaultReportParallelByteIdentical(t *testing.T) {
	for _, plan := range faultPlans {
		if seq, par := faultReport(t, plan, "1"), faultReport(t, plan, "4"); seq != par {
			t.Fatalf("-fault %s: report differs between -parallel 1 and 4:\n%s\nvs\n%s", plan, seq, par)
		}
	}
}

// -statfx exports and records the run it prints, and the artifacts
// leave its stdout byte for byte what a plain -statfx prints.
func TestStatfxExportsAndRecords(t *testing.T) {
	dir := t.TempDir()
	run := []string{"-statfx", "-app", "FLO52", "-ces", "8", "-steps", "1", "-fault", "ce:2@1e5"}
	code, plain, stderr := cedarsim(t, run...)
	if code != 0 {
		t.Fatalf("plain -statfx: exit %d, stderr %q", code, stderr)
	}
	paths := []string{filepath.Join(dir, "t.json"), filepath.Join(dir, "h.json"), filepath.Join(dir, "r.scenario")}
	code, stdout, stderr := cedarsim(t, append(run, "-trace", paths[0], "-hpm", paths[1], "-record-scenario", paths[2])...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if stdout != plain {
		t.Fatalf("artifacts changed -statfx stdout:\n%s\nvs\n%s", stdout, plain)
	}
	for _, p := range paths {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", filepath.Base(p), err)
		}
	}
}

// -server, -scenario and -fault refuse, as a bad invocation, every
// flag they would otherwise drop, naming it; -scenario still profiles.
// -series refuses a .prom path, pointing to -metrics.
func TestRefusesIgnoredFlags(t *testing.T) {
	dir := t.TempDir()
	server := []string{"-server", "http://127.0.0.1:1", "-app", "FLO52", "-ces", "8"}
	scen := []string{"-scenario", filepath.Join("..", "..", "testdata", "scaling")}
	fault := []string{"-fault", "lock:0@50000+20000,ce:5@100000", "-app", "FLO52", "-ces", "16", "-steps", "1"}
	for _, tc := range []struct {
		mode  []string
		flag  string // the refused flag, named in the message
		extra []string
	}{
		{server, "-chunk", []string{"-chunk", "4"}},
		{server, "-tree", []string{"-tree", "4"}},
		{server, "-trace", []string{"-trace", filepath.Join(dir, "t.json")}},
		{server, "-profile", []string{"-profile", filepath.Join(dir, "p.folded")}},
		{server, "-series", []string{"-series", filepath.Join(dir, "s.csv")}},
		{server, "-metrics", []string{"-metrics", filepath.Join(dir, "m.json")}},
		{server, "-hpm", []string{"-hpm", filepath.Join(dir, "h.json")}},
		{server, "-record-scenario", []string{"-fault", "ce:1@1e5", "-record-scenario", filepath.Join(dir, "r.scenario")}},
		{scen, "-app", []string{"-app", "MDG"}},
		{scen, "-ces", []string{"-ces", "8"}},
		{scen, "-steps", []string{"-steps", "1"}},
		{scen, "-fault", []string{"-fault", "ce:1@1e5"}},
		{scen, "-statfx", []string{"-statfx"}},
		{scen, "-trace", []string{"-trace", filepath.Join(dir, "t.json")}},
		{fault, "-no-baseline", []string{"-no-baseline", "-trace", filepath.Join(dir, "t.json")}},
	} {
		args := append(append([]string{}, tc.mode...), tc.extra...)
		code, stdout, stderr := cedarsim(t, args...)
		if code != 2 || !strings.Contains(stderr, tc.mode[0]+" ignores "+tc.flag+"\n") || stdout != "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 naming %s alone", args, code, stderr, tc.flag)
		}
	}
	if code, _, stderr := cedarsim(t, "-scenario", "x.scenario", "-steps", "1", "-hpm", "h.json"); code != 2 ||
		!strings.Contains(stderr, "-scenario ignores -hpm, -steps\n") {
		t.Errorf("two ignored flags: exit %d, stderr %q; want 2 naming both", code, stderr)
	}
	prom := filepath.Join(dir, "s.prom")
	if code, stdout, stderr := cedarsim(t, "-app", "FLO52", "-ces", "8", "-steps", "1", "-series", prom); code != 2 ||
		!strings.Contains(stderr, "-metrics "+prom) || stdout != "" {
		t.Errorf("-series %s: exit %d, stderr %q; want 2 pointing to -metrics", prom, code, stderr)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("a refused invocation left files: %v %v", entries, err)
	}
	prof := filepath.Join(dir, "cpu.prof")
	if code, _, stderr := cedarsim(t, append(scen, "-parallel", "2", "-cpuprofile", prof)...); code != 0 {
		t.Fatalf("-scenario -cpuprofile: exit %d, stderr %q", code, stderr)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("-scenario -cpuprofile wrote no profile: %v", err)
	}
}
