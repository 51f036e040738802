package main

import (
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/perfect"
)

// remoteWorkload gives every -app source one wire form: a registry
// name submits no document, and the other three forms submit the
// resolved app's canonical text, so a workload reached two ways caches
// under one key.
func TestRemoteWorkload(t *testing.T) {
	gen, err := cli.App("gen:seed=7")
	if err != nil {
		t.Fatal(err)
	}
	genDoc := string(perfect.PrintWorkload(gen))
	oceanDoc := string(perfect.PrintWorkload(perfect.OCEAN()))
	for _, tc := range []struct {
		name, src, want string
	}{
		{"registry name", "FLO52", ""},
		{"workload path", filepath.Join("..", "..", "testdata", "workloads", "ocean.workload"), oceanDoc},
		{"gen spec", "gen:seed=7", genDoc},
		{"inline document", "# a comment the canonical form drops\n" + genDoc, genDoc},
	} {
		app, err := cli.App(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := remoteWorkload(tc.src, app); got != tc.want {
			t.Errorf("%s: submitted workload\n%q\nwant\n%q", tc.name, got, tc.want)
		}
	}
}
