package cli

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/perfect"
)

func TestAppsKeepGenCommas(t *testing.T) {
	apps, err := Apps("FLO52,gen:seed=7,hot=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 || apps[0].Name != "FLO52" {
		t.Fatalf("got %d apps (%v), want FLO52 and one generated app", len(apps), apps)
	}
	want, err := App("gen:seed=7,hot=1")
	if err != nil {
		t.Fatal(err)
	}
	if string(perfect.PrintWorkload(apps[1])) != string(perfect.PrintWorkload(want)) {
		t.Fatal("the gen: element lost its hot=1 parameter")
	}

	apps, err = Apps("gen:seed=7, MDG ,gen:seed=8,hot=1," + filepath.Join("..", "..", "testdata", "workloads", "ocean.workload"))
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 4 || apps[1].Name != "MDG" || apps[3].Name != "OCEAN" {
		t.Fatalf("mixed list resolved to %d apps", len(apps))
	}
	if _, err := Apps("FLO52,NOSUCH"); err == nil || !strings.Contains(err.Error(), `unknown app "NOSUCH"`) {
		t.Fatalf("unknown element: err = %v", err)
	}
}

func TestMachineConfig(t *testing.T) {
	parse := func(args ...string) (arch.Config, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		m := MachineFlags(fs, 16)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return m.Config()
	}
	for _, tc := range []struct {
		args []string
		want arch.Config
	}{
		{nil, arch.Cedar16},
		{[]string{"-ces", "4"}, arch.Cedar4},
		{[]string{"-config", "32flat"}, arch.Unclustered32},
		{[]string{"-config", "scaled64", "-ces", "8"}, arch.Scaled64},
	} {
		if got, err := parse(tc.args...); err != nil || got != tc.want {
			t.Errorf("%v: got %s, %v; want %s", tc.args, got.Name, err, tc.want.Name)
		}
	}

	custom, err := parse("-clusters", "2", "-ces-per-cluster", "4")
	if err != nil || custom.Name != "custom-2x4" || custom.CEs() != 8 || custom.GMModules != 32 {
		t.Errorf("custom machine: %+v, %v", custom, err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-ces", "12"}, "no paper configuration with 12 CEs (supported: 1, 4, 8, 16, 32;"},
		{[]string{"-config", "9proc"}, `unknown configuration "9proc" (known:`},
		{[]string{"-config", "64proc", "-clusters", "2"}, "conflicts with the parametric machine flags"},
		{[]string{"-clusters", "16"}, "exceed network width"},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestPrintConfigsListsEveryFamilyMember(t *testing.T) {
	var b strings.Builder
	PrintConfigs(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(arch.Families()) {
		t.Fatalf("%d lines for %d configurations:\n%s", len(lines), len(arch.Families()), b.String())
	}
	if !strings.Contains(b.String(), "32flat") || !strings.Contains(b.String(), "(unclustered)") {
		t.Fatalf("listing misses the unclustered machine:\n%s", b.String())
	}
}

func TestCountFlagsRefuseNegatives(t *testing.T) {
	parse := func(args ...string) (steps, parallel int, err error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s, p := StepsFlag(fs, 1, "timesteps"), ParallelFlag(fs, "workers")
		err = fs.Parse(args)
		return *s, *p, err
	}
	if s, p, err := parse(); err != nil || s != 1 || p != 0 {
		t.Fatalf("defaults: steps %d parallel %d, %v; want 1 0", s, p, err)
	}
	if s, p, err := parse("-steps", "0", "-parallel", "4"); err != nil || s != 0 || p != 4 {
		t.Fatalf("steps %d parallel %d, %v; want 0 4", s, p, err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-steps", "-1"}, `invalid value "-1" for flag -steps: negative value -1`},
		{[]string{"-parallel", "-3"}, `invalid value "-3" for flag -parallel: negative value -3`},
		{[]string{"-steps", "two"}, `invalid value "two" for flag -steps: not an integer`},
	} {
		if _, _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
