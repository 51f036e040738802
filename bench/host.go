package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host identifies the machine, toolchain, code revision and inputs of a
// capture: a number without its host is not comparable with another.
type host struct {
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	OS         string   `json:"goos"`
	Arch       string   `json:"goarch"`
	Revision   string   `json:"revision,omitempty"`
	Dirty      bool     `json:"dirty,omitempty"`
	Seed       int64    `json:"seed"`
	Flags      []string `json:"flags"`
}

func hostInfo(seed int64, flags []string) host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Seed:       seed,
		Flags:      flags,
	}
	// The go command stamps the revision when it builds inside a git
	// work tree; an exported checkout has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel reads the processor name from /proc/cpuinfo, or reports the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
