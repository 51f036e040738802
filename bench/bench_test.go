package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests run the benchmark whole: the parent re-executes
// the test binary with -child for each workload.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// summaryLine is the last line of the benchmark's standard output.
type summaryLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runBench(t *testing.T, args ...string) (int, string, summaryLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-quick", "-seconds", "0.2"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last output line is not the summary: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), sum
}

func benchSpecForTest(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricReported runs all workloads untraced and traced and
// checks that every metric BENCHMARK.json names is printed with its
// unit, and that -compare accepts a set compared with itself but flags
// a 20% regression.
func TestEveryMetricReported(t *testing.T) {
	spec := benchSpecForTest(t)
	captures := t.TempDir()
	for _, traced := range []bool{false, true} {
		want, trace := spec.EndToEnd, "0"
		if traced {
			want, trace = spec.PerLayer, "1"
		}
		code, out, sum := runBench(t, "-trace", trace, "-out", captures)
		if code != 0 || !sum.Correct || sum.Failed != 0 {
			t.Fatalf("trace %s: exit %d, summary %+v\n%s", trace, code, sum, out)
		}
		for _, w := range spec.Workloads {
			for _, ms := range want {
				got, ok := sum.Metrics[w.Name+"/"+ms.Name]
				if !ok || got.Unit != ms.Unit {
					t.Errorf("trace %s: %s/%s missing or unit %q, want %q", trace, w.Name, ms.Name, got.Unit, ms.Unit)
				}
			}
		}
		for _, ms := range want {
			if !strings.Contains(out, ms.Name) {
				t.Errorf("trace %s: report does not print %s", trace, ms.Name)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(captures, "bigrun.trace.json")); err != nil {
		t.Errorf("traced run wrote no trace: %v", err)
	}

	var out, errOut bytes.Buffer
	if code := compare(spec, captures, captures, &out, &errOut); code != 0 {
		t.Fatalf("self-compare failed (exit %d):\n%s%s", code, out.String(), errOut.String())
	}
	// A 20% larger peak RSS must fail its 15% bound.
	larger := t.TempDir()
	data, err := os.ReadFile(filepath.Join(captures, "bigrun.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics["peak_rss_mb"]
	m.Value *= 1.2
	r.Metrics["peak_rss_mb"] = m
	if err := r.save(larger); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := compare(spec, filepath.Join(captures, "bigrun.json"), larger, &out, &errOut); code != 1 ||
		!strings.Contains(out.String(), "bigrun/peak_rss_mb") || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("a 20%% peak_rss_mb regression passed (exit %d):\n%s", code, out.String())
	}
}

// TestTamperedDigestFails checks that a wrong reference output counts
// as a failed operation and fails the run.
func TestTamperedDigestFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "expected.json")
	if err := os.WriteFile(path, []byte(`{"bigrun-quick": "0000"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, sum := runBench(t, "-workload", "bigrun", "-expected", path, "-out", dir)
	if code != 1 || sum.Correct || sum.Failed == 0 {
		t.Fatalf("tampered digest: exit %d, summary %+v\n%s", code, sum, out)
	}
	caps, err := loadCaptures(filepath.Join(dir, "bigrun.json"))
	if err != nil {
		t.Fatal(err)
	}
	if fr := caps["bigrun.json"].Metrics["failed_ratio"]; fr.Value <= 0 {
		t.Errorf("failed_ratio %v, want > 0", fr.Value)
	}
}
