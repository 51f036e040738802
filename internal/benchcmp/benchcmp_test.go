package benchcmp

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func writeFile(path, data string) error { return os.WriteFile(path, []byte(data), 0o644) }

// uniform builds the spec func both benchmark CLIs use: one gate for
// every entry.
func uniform(sp Spec) func(string) Spec { return func(string) Spec { return sp } }

// statusOf finds a row by name.
func statusOf(t *testing.T, rep *Report, name string) Row {
	t.Helper()
	for _, r := range rep.Rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no row %q in report %+v", name, rep.Rows)
	return Row{}
}

func TestCompareTable(t *testing.T) {
	cases := []struct {
		name         string
		old, new     map[string]float64
		spec         Spec
		missingFatal bool

		wantStatus map[string]Status
		wantFatal  map[string]bool
		wantErr    bool
	}{
		{
			name: "within tolerance passes",
			old:  map[string]float64{"a": 100}, new: map[string]float64{"a": 60},
			spec:       Spec{Tol: 0.5},
			wantStatus: map[string]Status{"a": StatusOK},
		},
		{
			name: "regression beyond tolerance fails",
			old:  map[string]float64{"a": 100}, new: map[string]float64{"a": 40},
			spec:       Spec{Tol: 0.5},
			wantStatus: map[string]Status{"a": StatusRegression},
			wantFatal:  map[string]bool{"a": true},
			wantErr:    true,
		},
		{
			name: "below min speedup fails even within tolerance",
			old:  map[string]float64{"a": 100}, new: map[string]float64{"a": 110},
			spec:       Spec{Tol: 0.5, MinSpeedup: 1.3},
			wantStatus: map[string]Status{"a": StatusBelowSpeedup},
			wantFatal:  map[string]bool{"a": true},
			wantErr:    true,
		},
		{
			name: "min speedup reached passes",
			old:  map[string]float64{"a": 100}, new: map[string]float64{"a": 140},
			spec:       Spec{Tol: 0.5, MinSpeedup: 1.3},
			wantStatus: map[string]Status{"a": StatusOK},
		},
		{
			name: "missing is informational in plain mode",
			old:  map[string]float64{"a": 100, "gone": 50}, new: map[string]float64{"a": 100},
			spec:       Spec{Tol: 0.5},
			wantStatus: map[string]Status{"a": StatusOK, "gone": StatusMissing},
			wantFatal:  map[string]bool{"gone": false},
		},
		{
			name: "missing is fatal under missingFatal even with common survivors",
			old:  map[string]float64{"a": 100, "gone": 50}, new: map[string]float64{"a": 150},
			spec:         Spec{Tol: 0.5, MinSpeedup: 1.3},
			missingFatal: true,
			wantStatus:   map[string]Status{"a": StatusOK, "gone": StatusMissing},
			wantFatal:    map[string]bool{"gone": true},
			wantErr:      true,
		},
		{
			name: "exact match passes",
			old:  map[string]float64{"ct": 123456}, new: map[string]float64{"ct": 123456},
			spec:       Spec{Exact: true},
			wantStatus: map[string]Status{"ct": StatusOK},
		},
		{
			name: "exact drift fails in either direction",
			old:  map[string]float64{"ct": 123456}, new: map[string]float64{"ct": 123457},
			spec:       Spec{Exact: true},
			wantStatus: map[string]Status{"ct": StatusDrift},
			wantFatal:  map[string]bool{"ct": true},
			wantErr:    true,
		},
		{
			name: "exact upward drift fails too",
			old:  map[string]float64{"ct": 100}, new: map[string]float64{"ct": 1000},
			spec:    Spec{Exact: true},
			wantErr: true,
		},
		{
			name: "new-only entry is informational",
			old:  map[string]float64{"a": 100}, new: map[string]float64{"a": 100, "fresh": 9},
			spec:       Spec{Tol: 0.5},
			wantStatus: map[string]Status{"fresh": StatusNew},
			wantFatal:  map[string]bool{"fresh": false},
		},
		{
			name: "empty intersection always fails",
			old:  map[string]float64{"a": 100}, new: map[string]float64{"b": 100},
			spec:    Spec{Tol: 0.5},
			wantErr: true,
		},
		{
			name: "both zero is exact-equal and ratio 1",
			old:  map[string]float64{"z": 0}, new: map[string]float64{"z": 0},
			spec:       Spec{Exact: true},
			wantStatus: map[string]Status{"z": StatusOK},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Compare(tc.old, tc.new, uniform(tc.spec), tc.missingFatal)
			for name, want := range tc.wantStatus {
				if got := statusOf(t, rep, name).Status; got != want {
					t.Errorf("%s: status %v, want %v", name, got, want)
				}
			}
			for name, want := range tc.wantFatal {
				if got := statusOf(t, rep, name).Fatal; got != want {
					t.Errorf("%s: fatal %v, want %v", name, got, want)
				}
			}
			if err := rep.Err(); (err != nil) != tc.wantErr {
				t.Errorf("Err() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestCompareRowOrder(t *testing.T) {
	rep := Compare(
		map[string]float64{"b": 1, "a": 1},
		map[string]float64{"a": 1, "b": 1, "d": 1, "c": 1},
		uniform(Spec{Tol: 0.5}), false)
	var names []string
	for _, r := range rep.Rows {
		names = append(names, r.Name)
	}
	want := "a b c d"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("row order %q, want %q", got, want)
	}
}

func TestWriteTableVerdicts(t *testing.T) {
	rep := Compare(
		map[string]float64{"reg": 100, "slow": 100, "gone": 100, "ok": 100},
		map[string]float64{"reg": 10, "slow": 110, "ok": 200, "fresh": 5},
		uniform(Spec{Tol: 0.5, MinSpeedup: 1.3}), true)
	var b strings.Builder
	rep.WriteTable(&b, "old ev/s", "new ev/s")
	out := b.String()
	for _, want := range []string{"REGRESSION", "BELOW 1.30x", "MISSING", "(no baseline)", "missing"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// event builds one go test -json output line.
func event(test, output string) string {
	return fmt.Sprintf(`{"Action":"output","Test":%q,"Output":%q}`, test, output)
}

func TestParseNsOp(t *testing.T) {
	log := strings.Join([]string{
		event("BenchmarkA", "    1000\t       500.0 ns/op\t       0 B/op"),
		`{"Action":"output","Output":"no test field, ignored 1\t 1.0 ns/op"}`,
		"not json at all",
		event("BenchmarkA", "    2000\t       250.0 ns/op"), // re-run keeps last
		event("BenchmarkB", "      10\t    125000 ns/op"),
		event("TestNotABench", "some output"),
	}, "\n")
	got, err := ParseNsOp(strings.NewReader(log), "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["BenchmarkA"] != 250 || got["BenchmarkB"] != 125000 {
		t.Fatalf("parsed %v", got)
	}
}

// TestParseNsOpResultForms: one captured result line of each form go
// test -json emits, the count-first line whose name came in an earlier
// event and the one-event line that starts with the name and its
// -GOMAXPROCS suffix. Both are keyed on the Test field.
func TestParseNsOpResultForms(t *testing.T) {
	log := strings.Join([]string{
		event("BenchmarkKernelScheduleHold", "BenchmarkKernelScheduleHold   \t"),
		event("BenchmarkKernelScheduleHold", " 4507105\t       542.3 ns/op\t   1843846 events/sec\t       0 B/op\t       0 allocs/op\n"),
		event("BenchmarkProcPingPong", "BenchmarkProcPingPong-2   \t13378114\t        17.40 ns/op\t       0 B/op\t       0 allocs/op\n"),
	}, "\n")
	got, err := ParseNsOp(strings.NewReader(log), "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["BenchmarkKernelScheduleHold"] != 542.3 || got["BenchmarkProcPingPong"] != 17.40 {
		t.Fatalf("parsed %v", got)
	}
}

// TestParseNsOpLongLine is the regression test for the 1 MiB
// bufio.Scanner cap: one oversized output line used to error out the
// whole gate ("token too long").
func TestParseNsOpLongLine(t *testing.T) {
	huge := strings.Repeat("x", 2<<20) // 2 MiB, over the old cap
	log := strings.Join([]string{
		event("BenchmarkHuge", huge),
		event("BenchmarkA", "    1000\t       500.0 ns/op"),
	}, "\n")
	got, err := ParseNsOp(strings.NewReader(log), "test")
	if err != nil {
		t.Fatalf("long line failed the parse: %v", err)
	}
	if got["BenchmarkA"] != 500 {
		t.Fatalf("parsed %v, want BenchmarkA=500", got)
	}
}

func TestLoadBaselinesDuplicate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, test string) string {
		path := dir + "/" + name
		data := event(test, "    1000\t       500.0 ns/op") + "\n"
		if err := writeFile(path, data); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p1 := write("one.json", "BenchmarkDup")
	p2 := write("two.json", "BenchmarkDup")
	if _, err := LoadBaselines([]string{p1, p2}); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkDup") {
		t.Fatalf("duplicate baseline error = %v, want it to name BenchmarkDup", err)
	}
	m, err := LoadBaselines([]string{p1})
	if err != nil || m["BenchmarkDup"] != 500 {
		t.Fatalf("single baseline = %v, %v", m, err)
	}
}

func TestPathListCommaSeparated(t *testing.T) {
	var pl PathList
	if err := pl.Set("a.json,b.json"); err != nil {
		t.Fatal(err)
	}
	if err := pl.Set("c.json"); err != nil {
		t.Fatal(err)
	}
	if got := pl.String(); got != "a.json,b.json,c.json" {
		t.Fatalf("paths %q", got)
	}
}

func TestEventsPerSec(t *testing.T) {
	got := EventsPerSec(map[string]float64{"a": 2e9})
	if got["a"] != 0.5 {
		t.Fatalf("events/sec = %v, want 0.5", got["a"])
	}
}
