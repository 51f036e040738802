// Package cli is the selection path the commands share: it turns an
// -app value into a perfect.App and the machine flags into an
// arch.Config, and registers the -steps and -parallel counts, so the
// commands accept the same sources and report the same errors.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/perfect"

	// Link the generator so gen: app sources resolve in every command.
	_ "repro/internal/perfect/gen"
)

// App resolves an -app value: a registry name, a gen: spec, a
// .workload file path, or an inline workload document.
func App(src string) (perfect.App, error) {
	return perfect.Resolver{AllowFiles: true}.Resolve(src)
}

// Apps resolves a comma-separated -app list. A gen: spec keeps its own
// commas: an element that is a key=value parameter continues the gen:
// spec before it, so "FLO52,gen:seed=7,hot=1" is two apps.
func Apps(list string) ([]perfect.App, error) {
	var srcs []string
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		param := strings.Contains(part, "=") && !strings.HasPrefix(part, perfect.GenPrefix)
		if n := len(srcs); n > 0 && param && strings.HasPrefix(srcs[n-1], perfect.GenPrefix) {
			srcs[n-1] += "," + part
			continue
		}
		srcs = append(srcs, part)
	}
	apps := make([]perfect.App, len(srcs))
	for i, src := range srcs {
		var err error
		if apps[i], err = App(src); err != nil {
			return nil, err
		}
	}
	return apps, nil
}

// Machine is the machine-selection flag set: -config, -ces,
// -list-configs, and the parametric dimension flags.
type Machine struct {
	Name string // -config: a named family member
	CEs  int    // -ces: a paper configuration by CE count
	List bool   // -list-configs
	// Dims holds the parametric dimensions; a zero field keeps the
	// Cedar32 value.
	Dims arch.Config
}

// MachineFlags registers -config, -ces (defaulting to ces),
// -list-configs, and the parametric dimension flags on fs.
func MachineFlags(fs *flag.FlagSet, ces int) *Machine {
	m := &Machine{}
	fs.StringVar(&m.Name, "config", "", "named machine family member (see -list-configs)")
	fs.IntVar(&m.CEs, "ces", ces, "processor count: 1, 4, 8, 16, or 32")
	fs.BoolVar(&m.List, "list-configs", false, "print all named machine configurations and exit")
	fs.IntVar(&m.Dims.Clusters, "clusters", 0, "custom machine: cluster count")
	fs.IntVar(&m.Dims.CEsPerCluster, "ces-per-cluster", 0, "custom machine: CEs per cluster")
	fs.IntVar(&m.Dims.GMModules, "gm-modules", 0, "custom machine: global memory modules (default 32)")
	fs.IntVar(&m.Dims.NetStages, "stages", 0, "custom machine: network stages (default 2)")
	fs.IntVar(&m.Dims.SwitchDegree, "degree", 0, "custom machine: crossbar switch degree (default 8)")
	return m
}

// Custom reports whether any parametric dimension was set.
func (m *Machine) Custom() bool { return m.Dims != arch.Config{} }

// Config resolves the selection: a custom parametric machine when any
// dimension is set (unset ones keep Cedar32's values, and
// arch.Config.Validate names a violated topology constraint), else the
// -config family member, else the paper configuration with -ces CEs —
// the closed list the paper measures.
func (m *Machine) Config() (arch.Config, error) {
	switch {
	case m.Custom():
		if m.Name != "" {
			return arch.Config{}, fmt.Errorf("-config %s conflicts with the parametric machine flags", m.Name)
		}
		cfg := arch.Cedar32
		set := func(dst *int, v int) {
			if v > 0 {
				*dst = v
			}
		}
		set(&cfg.Clusters, m.Dims.Clusters)
		set(&cfg.CEsPerCluster, m.Dims.CEsPerCluster)
		set(&cfg.GMModules, m.Dims.GMModules)
		set(&cfg.NetStages, m.Dims.NetStages)
		set(&cfg.SwitchDegree, m.Dims.SwitchDegree)
		cfg.Name = fmt.Sprintf("custom-%dx%d", cfg.Clusters, cfg.CEsPerCluster)
		return cfg, cfg.Validate()
	case m.Name != "":
		cfg, ok := arch.FamilyByName(m.Name)
		if !ok {
			return cfg, arch.UnknownConfigError(m.Name)
		}
		return cfg, nil
	}
	var supported []string
	for _, c := range arch.PaperConfigs() {
		if c.CEs() == m.CEs {
			return c, nil
		}
		supported = append(supported, fmt.Sprint(c.CEs()))
	}
	return arch.Config{}, fmt.Errorf("no paper configuration with %d CEs (supported: %s; -config opens the scaled machines)",
		m.CEs, strings.Join(supported, ", "))
}

// PrintConfigs writes every named member of the machine family with
// its topology (the -list-configs output).
func PrintConfigs(w io.Writer) {
	fmt.Fprintf(w, "%-10s %5s %9s %5s %8s %7s %7s\n",
		"name", "CEs", "clusters", "CE/cl", "GM mods", "stages", "degree")
	for _, c := range arch.Families() {
		note := ""
		if c.Unclustered {
			note = "  (unclustered)"
		}
		fmt.Fprintf(w, "%-10s %5d %9d %5d %8d %7d %7d%s\n",
			c.Name, c.CEs(), c.Clusters, c.CEsPerCluster,
			c.GMModules, c.NetStages, c.SwitchDegree, note)
	}
}

// StepsFlag registers -steps on fs, the timestep count, defaulting to
// def. A negative value fails the parse with a message naming the flag
// (exit 2 on an ExitOnError set, like any bad flag value).
func StepsFlag(fs *flag.FlagSet, def int, usage string) *int {
	n := def
	fs.Var((*count)(&n), "steps", usage)
	return &n
}

// ParallelFlag registers -parallel on fs, the worker count (0 =
// GOMAXPROCS, 1 = sequential). A negative value fails the parse like
// a negative -steps.
func ParallelFlag(fs *flag.FlagSet, usage string) *int {
	var n int
	fs.Var((*count)(&n), "parallel", usage)
	return &n
}

// count is an int flag value that refuses negatives.
type count int

func (c *count) Set(s string) error {
	n, err := strconv.Atoi(s)
	if err != nil {
		return errors.New("not an integer")
	}
	if n < 0 {
		return fmt.Errorf("negative value %d (want >= 0)", n)
	}
	*c = count(n)
	return nil
}

func (c *count) String() string {
	if c == nil {
		return "0"
	}
	return strconv.Itoa(int(*c))
}
