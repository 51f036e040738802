package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
		"-no-baseline", "-fault", "ce:1@76414", "-record-scenario", path)
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
		"-no-baseline", "-fault", "ce:1@76414", "-record-scenario", path}
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
