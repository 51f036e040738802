package cedar

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/perfect"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/golden/trace_bundle.golden")

// traceGolden is the canonical dump of the trace bundles of the runs in
// traceGoldenPlans plus the page-fault windows of FaultWindows(FLO52,
// Cedar8). Any change to how spans and instants are recorded must
// reproduce it line for line.
const traceGolden = "testdata/golden/trace_bundle.golden"

// traceGoldenPlans are the FLO52/Cedar16 fault plans whose traces the
// golden holds. Together they emit every span and instant name: the
// OS service spans with kernel-lock spin (the global lock stalled at
// time 0, when the lead's global system calls run), interrupt
// delivery, both page-fault classes, slow global-memory stalls and
// hot accesses (a module slowed 8x), fault activations as spans and
// instants, and CE fail-stops — the first plan's inside one of CE 5's
// slow stalls.
var traceGoldenPlans = []string{
	"module:3x8@1000,lock:-1@0+5000,ce:5@166000",
	"lock:0@50000+20000,ce:5@100000",
}

// traceGoldenNames are the names the golden must contain.
var traceGoldenNames = []string{
	"clus syscall", "glbl syscall", "kl-spin", "interrupt-delivery",
	"pgflt(seq)", "pgflt(conc)", "gm-stall", "gm-hot", "ce-fail",
	"lock-stall", "module-slow", "fault-inject",
}

// dumpBundle renders every field of every span and instant of b, one
// per line, sorted so that recording order does not matter.
func dumpBundle(b *obs.Bundle) string {
	var lines []string
	for _, s := range b.Spans {
		lines = append(lines, fmt.Sprintf("span %d %q %s %d %d %d", s.Track, s.Name, s.Cat, s.Start, s.End, s.Aux))
	}
	for _, in := range b.Instants {
		lines = append(lines, fmt.Sprintf("instant %d %q %s %d %d", in.Track, in.Name, in.Cat, in.At, in.Aux))
	}
	sort.Strings(lines)
	return fmt.Sprintf("bundle app=%s config=%s ces=%d per-cluster=%d ct=%d\n%s\n",
		b.App, b.Config, b.CEs, b.CEsPerCluster, b.CT, strings.Join(lines, "\n"))
}

// TestTraceBundleGolden pins the trace bundle's content, span for span.
func TestTraceBundleGolden(t *testing.T) {
	var out strings.Builder
	for _, spec := range traceGoldenPlans {
		run, err := SimulateRunErr(perfect.FLO52(), arch.Cedar16, Options{
			Steps:         1,
			TraceCapacity: 1 << 22,
			Faults:        mustPlan(t, spec),
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "# plan %s\n%s", spec, dumpBundle(run.TraceBundle()))
	}
	ws, err := FaultWindows(perfect.FLO52(), arch.Cedar8, Options{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "# FaultWindows FLO52 8proc\n")
	for _, w := range ws {
		fmt.Fprintf(&out, "window %d %d\n", w.Start, w.End)
	}
	got := out.String()
	for _, name := range traceGoldenNames {
		if !strings.Contains(got, fmt.Sprintf("%q", name)) {
			t.Errorf("no %q span or instant in the golden runs", name)
		}
	}

	if *updateTrace {
		if err := os.WriteFile(traceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-trace to record)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("trace bundle differs from %s at line %d:\n got  %s\n want %s", traceGolden, i+1, g, w)
			}
		}
	}
}
