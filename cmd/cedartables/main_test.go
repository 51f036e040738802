package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with CEDARTABLES_MAIN
// set, the test binary behaves as cedartables on the arguments after
// "--".
func TestMain(m *testing.M) {
	if os.Getenv("CEDARTABLES_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"cedartables"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTablesCSVGolden: the paper tables are byte-identical to the
// committed snapshot, sequentially and through the parallel engine.
func TestTablesCSVGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden/tables.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "4"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$", "--", "-csv", "-parallel", parallel)
		cmd.Env = append(os.Environ(), "CEDARTABLES_MAIN=1")
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		if bytes.Equal(got, want) {
			continue
		}
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("-parallel %s: tables.csv differs from the golden at line %d:\n got: %q\nwant: %q",
					parallel, i+1, g, w)
			}
		}
	}
}
