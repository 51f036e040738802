package cedar

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/perfect"
	"repro/internal/statfx"
)

// observedRun is the FLO52/Cedar16 run the acceptance checks share.
func observedRun(t *testing.T) *Run {
	t.Helper()
	return mustRun(t, perfect.FLO52(), arch.Cedar16, Options{
		Steps:         1,
		TraceCapacity: 1 << 20,
		Observe:       true,
	})
}

// TestObservationDoesNotPerturbSimulation: probes are pure reads taken
// on the statfx tick the run has anyway, and span recording happens
// outside virtual time, so an observed run must do exactly the work of
// an unobserved one: the same cycles, events and process switches.
func TestObservationDoesNotPerturbSimulation(t *testing.T) {
	plain := mustRun(t, perfect.FLO52(), arch.Cedar16, Options{Steps: 1})
	seen := observedRun(t)
	if plain.Result.CT != seen.Result.CT {
		t.Fatalf("observation changed the run: CT %d (plain) vs %d (observed)",
			plain.Result.CT, seen.Result.CT)
	}
	pk, sk := plain.Machine.Kernel, seen.Machine.Kernel
	if pk.EventsFired() != sk.EventsFired() || pk.Switches() != sk.Switches() {
		t.Fatalf("observation changed the work: %d events, %d switches (plain) vs %d, %d (observed)",
			pk.EventsFired(), pk.Switches(), sk.EventsFired(), sk.Switches())
	}
}

// TestTraceExportIsValid checks the Chrome/Perfetto contract on a real
// run: parseable JSON, nondecreasing timestamps, nonnegative complete-
// event durations, and balanced async begin/end pairs.
func TestTraceExportIsValid(t *testing.T) {
	run := observedRun(t)
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, run.TraceBundle()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			ID  string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}
	lastTs := math.Inf(-1)
	async := map[string]int{}
	for i, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ts < lastTs {
			t.Fatalf("event %d: ts %v < previous %v", i, e.Ts, lastTs)
		}
		lastTs = e.Ts
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				t.Fatalf("event %d: negative duration %v", i, e.Dur)
			}
		case "b":
			async[e.ID]++
		case "e":
			async[e.ID]--
		case "i": // instants carry no duration
		default:
			t.Fatalf("event %d: unexpected phase %q", i, e.Ph)
		}
	}
	for id, n := range async {
		if n != 0 {
			t.Fatalf("async id %s: %d unmatched begin/end events", id, n)
		}
	}
}

// TestFoldedProfileBudget: the folded profile is a complete accounting
// of the run — every CE's stack weights sum to exactly the completion
// time, so the machine-wide total is CT x CEs.
func TestFoldedProfileBudget(t *testing.T) {
	run := observedRun(t)
	var buf bytes.Buffer
	if err := obs.WriteFolded(&buf, run.Result.App, run.Result.CT, run.Machine.Accounts()); err != nil {
		t.Fatal(err)
	}
	perCE := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		stack, wStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed folded line %q", line)
		}
		w, err := strconv.ParseInt(wStr, 10, 64)
		if err != nil || w < 0 {
			t.Fatalf("bad weight in %q", line)
		}
		frames := strings.Split(stack, ";")
		if len(frames) != 4 || frames[0] != "FLO52" {
			t.Fatalf("want app;ce;group;category in %q", line)
		}
		perCE[frames[1]] += w
	}
	ces := run.Machine.Cfg.CEs()
	if len(perCE) != ces {
		t.Fatalf("profile covers %d CEs, want %d", len(perCE), ces)
	}
	for ce, total := range perCE {
		if total != int64(run.Result.CT) {
			t.Fatalf("%s weights sum to %d, want CT %d", ce, total, int64(run.Result.CT))
		}
	}
}

// TestSeriesMatchesStatfx: the series' concurrency column must agree
// with the statfx monitors — exactly with the Sampler (the same ticks
// fill both) and within sampling error of Exact. The sampler runs at a
// fine 500-cycle cadence: at the default 10k-cycle grid a 1-step run
// yields under 40 samples, too few for the sampled mean to track the
// integrated value (the convergence property
// TestSamplerConvergesToExact characterizes).
func TestSeriesMatchesStatfx(t *testing.T) {
	run := mustRun(t, perfect.FLO52(), arch.Cedar16, Options{
		Steps:           1,
		SamplerInterval: 500,
		Observe:         true,
	})
	mean, err := run.Series.Mean("concurrency")
	if err != nil {
		t.Fatal(err)
	}
	if sampled := run.Result.SampledConcurrency; math.Abs(mean-sampled) > 1e-9*sampled {
		t.Fatalf("series mean %v vs statfx sampled %v", mean, sampled)
	}
	// Against the account-integrated value the sampled mean sits below:
	// time charged retroactively after a blocking wait (lock handoff,
	// condition wakeup) is active in the accounts but was never a
	// visible busy state at any sample instant. The envelope bounds
	// that structural gap without asserting it away.
	exact := statfx.ExactMachine(run.Machine, run.Result.CT)
	if mean > exact*1.02 || mean < exact*0.6 {
		t.Fatalf("series mean %v vs exact %v: outside the sampling envelope", mean, exact)
	}

	var buf bytes.Buffer
	if err := obs.WriteCSV(&buf, run.Series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != run.Series.Len()+1 {
		t.Fatalf("CSV has %d lines, want header + %d samples", len(lines), run.Series.Len())
	}
	cols := strings.Split(lines[0], ",")
	idx := -1
	for i, c := range cols {
		if c == "concurrency" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no concurrency column in %q", lines[0])
	}
	sum, n := 0.0, 0
	for _, line := range lines[1:] {
		v, err := strconv.ParseFloat(strings.Split(line, ",")[idx], 64)
		if err != nil {
			t.Fatalf("bad CSV value in %q: %v", line, err)
		}
		sum += v
		n++
	}
	if csvMean := sum / float64(n); math.Abs(csvMean-mean) > 1e-9 {
		t.Fatalf("CSV mean %v != collector mean %v", csvMean, mean)
	}
}

// TestNegativeSamplerIntervalRejected: a negative period is refused
// before the run, with an error naming the field.
func TestNegativeSamplerIntervalRejected(t *testing.T) {
	_, err := SimulateRunErr(perfect.FLO52(), arch.Cedar4, Options{Steps: 1, SamplerInterval: -1})
	if err == nil || !strings.Contains(err.Error(), "SamplerInterval") {
		t.Fatalf("negative SamplerInterval: err = %v, want one naming the field", err)
	}
}

// TestUnobservedRunArmsNothing: the zero-cost path — without
// TraceCapacity and Observe a run has no monitor and no collector,
// and TraceBundle still works, with nothing to fold.
func TestUnobservedRunArmsNothing(t *testing.T) {
	run := mustRun(t, perfect.FLO52(), arch.Cedar4, Options{Steps: 1})
	if run.Monitor != nil || run.Series != nil {
		t.Fatal("monitor or collector armed without TraceCapacity/Observe")
	}
	b := run.TraceBundle()
	if len(b.Spans) != 0 || len(b.Instants) != 0 {
		t.Fatalf("unobserved run folded %d spans, %d instants", len(b.Spans), len(b.Instants))
	}
}

// TestObservedFaultRunRecordsFaultSpans: fault activations surface in
// the trace bundle (the lock stall as a machine-track span, the
// fail-stop as instants), folded from the injector's log — even with
// the monitor disarmed.
func TestObservedFaultRunRecordsFaultSpans(t *testing.T) {
	run, err := SimulateRunErr(perfect.FLO52(), arch.Cedar16, Options{
		Steps:   1,
		Observe: true,
		Faults:  mustPlan(t, "lock:0@50000+20000,ce:5@100000"),
	})
	if err != nil {
		t.Fatal(err)
	}
	bundle := run.TraceBundle()
	var lockSpan, failInstant bool
	for _, s := range bundle.Spans {
		if s.Cat == obs.CatFault && s.Name == "lock-stall" && s.Track == obs.TrackMachine {
			lockSpan = true
		}
	}
	for _, in := range bundle.Instants {
		if in.Cat == obs.CatFault && in.Name == "ce-fail" {
			failInstant = true
		}
	}
	if !lockSpan {
		t.Error("no lock-stall span on the machine track")
	}
	if !failInstant {
		t.Error("no ce-fail instant")
	}
}
