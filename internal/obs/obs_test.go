package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// loopNames is a FoldTrace name source for tests.
type loopNames map[int64]string

func (n loopNames) LoopName(gen int64) string { return n[gen] }

func TestFoldTracePairsAndLoops(t *testing.T) {
	records := []hpm.Record{
		{Event: hpm.EvSerialStart, CE: 0, At: 0},
		{Event: hpm.EvSerialEnd, CE: 0, At: 100},
		{Event: hpm.EvLoopPost, CE: 0, At: 100, Aux: 1},
		{Event: hpm.EvHelperJoin, CE: 8, At: 110, Aux: 1},
		{Event: hpm.EvIterStart, CE: 8, At: 120, Aux: 3},
		{Event: hpm.EvIterEnd, CE: 8, At: 150, Aux: 3},
		{Event: hpm.EvHelperDetach, CE: 8, At: 160, Aux: 1},
		{Event: hpm.EvBarrierEnter, CE: 0, At: 140, Aux: 1},
		{Event: hpm.EvBarrierExit, CE: 0, At: 170, Aux: 1},
		{Event: hpm.EvFaultInject, CE: 2, At: 130, Aux: 0},
	}
	spans, instants := FoldTrace(records, loopNames{1: "sweep"})

	want := map[string]bool{}
	for _, s := range spans {
		want[s.Name] = true
		if s.End < s.Start {
			t.Fatalf("span %q inverted: %+v", s.Name, s)
		}
	}
	for _, name := range []string{"serial", "iter", "barrier", "sweep"} {
		if !want[name] {
			t.Fatalf("missing folded span %q; have %v", name, want)
		}
	}

	// One machine-track loop window plus two participation spans.
	loops := 0
	parts := 0
	for _, s := range spans {
		if s.Cat == CatLoop {
			if s.Track == TrackMachine {
				loops++
				if s.Start != 100 || s.End != 170 {
					t.Fatalf("loop window = [%d,%d], want [100,170]", s.Start, s.End)
				}
			} else {
				parts++
			}
		}
	}
	if loops != 1 || parts != 2 {
		t.Fatalf("loops=%d parts=%d, want 1 and 2", loops, parts)
	}

	// Spans sorted by start.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted at %d", i)
		}
	}

	gotFault := false
	for _, in := range instants {
		if in.Name == "fault-inject" {
			gotFault = true
		}
	}
	if !gotFault {
		t.Fatal("fault-inject instant not folded")
	}
}

// TestFoldTraceOSAndMemory folds Xylem and memory trigger points: a
// lock grant that waited yields kl-spin before the service span named
// by its OS category, one that did not wait yields only the service;
// a page fault ends as either class; a slow stall and a hot access
// fold to a span and a machine-track instant; and a start whose CE
// fail-stopped before the end is dropped.
func TestFoldTraceOSAndMemory(t *testing.T) {
	sys := int64(metrics.OSClusSyscall)
	records := []hpm.Record{
		{Event: hpm.EvOSEnter, CE: 0, At: 0, Aux: sys},
		{Event: hpm.EvOSGranted, CE: 0, At: 0, Aux: sys},
		{Event: hpm.EvOSEnter, CE: 1, At: 5, Aux: sys},
		{Event: hpm.EvOSExit, CE: 0, At: 20, Aux: sys},
		{Event: hpm.EvOSGranted, CE: 1, At: 20, Aux: sys},
		{Event: hpm.EvOSExit, CE: 1, At: 40, Aux: sys},
		{Event: hpm.EvPgFltStart, CE: 2, At: 50, Aux: 7},
		{Event: hpm.EvPgFltStart, CE: 3, At: 52, Aux: 7},
		{Event: hpm.EvPgFltSeqEnd, CE: 2, At: 90, Aux: 7},
		{Event: hpm.EvPgFltConcEnd, CE: 3, At: 95, Aux: 7},
		{Event: hpm.EvIntrStart, CE: 4, At: 100, Aux: 3},
		{Event: hpm.EvIntrEnd, CE: 4, At: 130},
		{Event: hpm.EvGMHot, CE: 5, At: 200, Aux: 11},
		{Event: hpm.EvGMStallStart, CE: 5, At: 200, Aux: 4096},
		{Event: hpm.EvGMStallEnd, CE: 5, At: 2500, Aux: 4096},
		{Event: hpm.EvGMStallStart, CE: 6, At: 300, Aux: 64}, // CE 6 fail-stops
	}
	spans, instants := FoldTrace(records, nil)
	want := []Span{
		{Track: 0, Name: "clus syscall", Cat: CatOS, Start: 0, End: 20},
		{Track: 1, Name: "kl-spin", Cat: CatOS, Start: 5, End: 20},
		{Track: 1, Name: "clus syscall", Cat: CatOS, Start: 20, End: 40},
		{Track: 2, Name: "pgflt(seq)", Cat: CatOS, Start: 50, End: 90, Aux: 7},
		{Track: 3, Name: "pgflt(conc)", Cat: CatOS, Start: 52, End: 95, Aux: 7},
		{Track: 4, Name: "interrupt-delivery", Cat: CatOS, Start: 100, End: 130, Aux: 3},
		{Track: 5, Name: "gm-stall", Cat: CatMem, Start: 200, End: 2500, Aux: 4096},
	}
	if len(spans) != len(want) {
		t.Fatalf("folded %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	hot := Instant{Track: TrackMachine, Name: "gm-hot", Cat: CatMem, At: 200, Aux: 11}
	if len(instants) != 1 || instants[0] != hot {
		t.Fatalf("instants = %+v, want [%+v]", instants, hot)
	}
}

// TestFoldFaults renders the injector's log: a lock stall as a
// machine-track span, every activation otherwise as an instant named
// by its kind, and each CE's first fail-stop on the CE's own track.
func TestFoldFaults(t *testing.T) {
	applied := []faults.Applied{
		{Event: faults.Event{Kind: faults.LockStall, Target: 0, Span: 500}, At: 100},
		{Event: faults.Event{Kind: faults.CEFail, Target: 5}, At: 200},
		{Event: faults.Event{Kind: faults.CEFail, Target: 5}, At: 300}, // already dead
		{Event: faults.Event{Kind: faults.ModuleSlow, Target: 3, Factor: 8}, At: 400},
	}
	spans, instants := FoldFaults(applied)
	lock := Span{Track: TrackMachine, Name: "lock-stall", Cat: CatFault, Start: 100, End: 600}
	if len(spans) != 1 || spans[0] != lock {
		t.Fatalf("spans = %+v, want [%+v]", spans, lock)
	}
	want := []Instant{
		{Track: 5, Name: "ce-fail", Cat: CatFault, At: 200},
		{Track: TrackMachine, Name: "ce-fail", Cat: CatFault, At: 200, Aux: 5},
		{Track: TrackMachine, Name: "ce-fail", Cat: CatFault, At: 300, Aux: 5},
		{Track: TrackMachine, Name: "module-slow", Cat: CatFault, At: 400, Aux: 3},
	}
	if len(instants) != len(want) {
		t.Fatalf("instants = %+v, want %+v", instants, want)
	}
	for i := range want {
		if instants[i] != want[i] {
			t.Errorf("instant %d = %+v, want %+v", i, instants[i], want[i])
		}
	}
}

func TestFoldTraceDropsUnmatched(t *testing.T) {
	records := []hpm.Record{
		{Event: hpm.EvIterStart, CE: 0, At: 10, Aux: 0},
		// no EvIterEnd: truncated buffer
	}
	spans, _ := FoldTrace(records, nil)
	if len(spans) != 0 {
		t.Fatalf("unmatched start produced %d spans", len(spans))
	}
}

func TestClampSpans(t *testing.T) {
	spans := []Span{
		{Name: "a", Start: 0, End: 50},
		{Name: "b", Start: 40, End: 200},
		{Name: "c", Start: 150, End: 160},
	}
	out := ClampSpans(spans, 100)
	if len(out) != 2 {
		t.Fatalf("clamped to %d spans, want 2", len(out))
	}
	if out[1].End != 100 {
		t.Fatalf("span b end = %d, want 100", out[1].End)
	}
}

// readers builds one registry scalar reader per name over fn(name).
func readers(fn func(name string) float64, names ...string) []metricreg.ScalarReader {
	out := make([]metricreg.ScalarReader, len(names))
	for i, n := range names {
		out[i] = metricreg.ScalarReader{Desc: metricreg.Desc{Name: n}, Read: func() float64 { return fn(n) }}
	}
	return out
}

func TestCollectorRingAndSeries(t *testing.T) {
	var now sim.Time
	c := newCollector(readers(func(string) float64 { return float64(now) }, "now"), 4)
	for now = 10; now <= 100; now += 10 {
		c.Sample(now)
	}

	if c.Taken() != 10 {
		t.Fatalf("taken = %d, want 10", c.Taken())
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want ring capacity 4", c.Len())
	}
	times := c.Times()
	if times[0] != 70 || times[3] != 100 {
		t.Fatalf("ring kept %v, want [70 80 90 100]", times)
	}
	s, err := c.Series("now")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s {
		if v != float64(times[i]) {
			t.Fatalf("series[%d] = %v, want %v", i, v, times[i])
		}
	}
	if _, err := c.Series("missing"); err == nil {
		t.Fatal("Series(missing) did not error")
	}
	m, err := c.Mean("now")
	if err != nil || m != 85 {
		t.Fatalf("Mean = %v (%v), want 85", m, err)
	}
}

func TestFoldedTotalsEqualCTTimesCEs(t *testing.T) {
	const ct = 1000
	a0 := metrics.NewAccount(0)
	a0.Add(metrics.CatSerial, 300)
	a0.Add(metrics.CatOSSystem, 200) // 500 unaccounted -> idle
	a1 := metrics.NewAccount(1)
	a1.Add(metrics.CatLoopIter, 900)
	a1.Add(metrics.CatOSSpin, 400) // overshoot of 300 -> trimmed
	accounts := []*metrics.Account{a0, a1}

	lines := Folded("APP", ct, accounts)
	var total int64
	perCE := map[string]int64{}
	for _, l := range lines {
		total += l.Cycles
		frames := strings.Split(l.Stack, ";")
		if len(frames) != 4 || frames[0] != "APP" {
			t.Fatalf("bad stack %q", l.Stack)
		}
		perCE[frames[1]] += l.Cycles
	}
	if total != ct*int64(len(accounts)) {
		t.Fatalf("total weight = %d, want %d", total, ct*int64(len(accounts)))
	}
	for ce, w := range perCE {
		if w != ct {
			t.Fatalf("%s weight = %d, want %d", ce, w, ct)
		}
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	a := metrics.NewAccount(3)
	a.Add(metrics.CatLoopIter, 60)
	var buf bytes.Buffer
	if err := WriteFolded(&buf, "FLO52", 100, []*metrics.Account{a}); err != nil {
		t.Fatal(err)
	}
	want := "FLO52;ce3;user;loop-iter 60\nFLO52;ce3;idle;idle 40\n"
	if buf.String() != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestWriteTraceValidJSON(t *testing.T) {
	b := &Bundle{
		App: "FLO52", Config: "16proc", CEs: 2, CEsPerCluster: 8, CT: 200,
		Spans: []Span{
			{Track: TrackMachine, Name: "sweep", Cat: CatLoop, Start: 10, End: 150, Aux: 1},
			{Track: 0, Name: "iter", Cat: CatRT, Start: 20, End: 80, Aux: 5},
			{Track: 1, Name: "pick", Cat: CatRT, Start: 20, End: 30, Aux: 1},
		},
		Instants: []Instant{{Track: TrackMachine, Name: "fault-inject", Cat: CatFault, At: 60}},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	lastTs := -1.0
	asyncOpen := map[string]int{}
	for _, ev := range tf.TraceEvents {
		ph := ev["ph"].(string)
		if ph == "M" {
			continue
		}
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Fatalf("ts went backwards: %v after %v", ts, lastTs)
		}
		lastTs = ts
		switch ph {
		case "X":
			if ev["dur"].(float64) < 0 {
				t.Fatalf("negative dur in %v", ev)
			}
		case "b":
			asyncOpen[ev["id"].(string)]++
		case "e":
			asyncOpen[ev["id"].(string)]--
		}
	}
	for id, n := range asyncOpen {
		if n != 0 {
			t.Fatalf("async id %s unbalanced: %d", id, n)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	vals := map[string]float64{"concurrency": 3, "gm util (mean)": 0.5}
	c := NewCollector(readers(func(n string) float64 { return vals[n] }, "concurrency", "gm util (mean)"))
	for now := sim.Time(5); now <= 20; now += 5 {
		c.Sample(now)
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "cycles,seconds,concurrency,gm util (mean)" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 5 { // header + 4 samples
		t.Fatalf("csv has %d lines, want 5", len(lines))
	}
	if !strings.HasPrefix(lines[1], "5,") || !strings.HasSuffix(lines[1], ",3,0.5") {
		t.Fatalf("csv row = %q", lines[1])
	}
}
