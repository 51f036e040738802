package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/benchcmp"
)

// compare gates set b against set a: every end-to-end metric of an
// untraced capture within its BENCHMARK.json bound, and every exact
// work count identical when both captures ran the same inputs. It
// prints one row per workload × metric and returns 1 when any fails.
func compare(s *benchSpec, a, b string, stdout, stderr io.Writer) int {
	olds, err := loadCaptures(a)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	news, err := loadCaptures(b)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	bounds := map[string]metricSpec{}
	for _, ms := range s.EndToEnd {
		bounds[ms.Name] = ms
	}
	type gated struct {
		spec     benchcmp.Spec
		label    string
		old, new float64
	}
	rows := map[string]gated{}
	// benchcmp treats higher as better, so a lower-is-better metric is
	// compared as its reciprocal, with the bound converted to match.
	oldV, newV := map[string]float64{}, map[string]float64{}
	for name, o := range olds {
		n, ok := news[name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s is in %s but not in %s\n", name, a, b)
			return 1
		}
		if o.Host.CPU != n.Host.CPU || o.Host.GOMAXPROCS != n.Host.GOMAXPROCS || o.Host.GoVersion != n.Host.GoVersion {
			fmt.Fprintf(stdout, "note: %s ran on different hosts or toolchains: %s, GOMAXPROCS %d, %s vs %s, GOMAXPROCS %d, %s\n",
				name, o.Host.CPU, o.Host.GOMAXPROCS, o.Host.GoVersion, n.Host.CPU, n.Host.GOMAXPROCS, n.Host.GoVersion)
		}
		for mname, om := range o.Metrics {
			key := o.Workload + "/" + mname
			g := gated{old: om.Value}
			invert := false
			if ms, ok := bounds[mname]; ok && !o.Traced {
				g.spec = benchcmp.Spec{Tol: ms.Bound}
				g.label = fmt.Sprintf("%.0f%%", 100*ms.Bound)
				if ms.Better == "lower" {
					g.spec.Tol = 1 - 1/(1+ms.Bound)
					invert = true
				}
			} else if om.Exact && o.Host.Seed == n.Host.Seed {
				g.spec, g.label = benchcmp.Spec{Exact: true}, "exact"
			} else {
				continue
			}
			value := func(v float64) float64 {
				if invert {
					return 1 / v
				}
				return v
			}
			oldV[key] = value(om.Value)
			if nm, ok := n.Metrics[mname]; ok {
				g.new = nm.Value
				newV[key] = value(nm.Value)
			}
			rows[key] = g
		}
	}
	rep := benchcmp.Compare(oldV, newV, func(name string) benchcmp.Spec { return rows[name].spec }, true)
	fmt.Fprintf(stdout, "%-44s %14s %14s %8s %6s\n", "workload/metric", "old", "new", "new/old", "bound")
	for _, row := range rep.Rows {
		g := rows[row.Name]
		verdict := ""
		if row.Fatal {
			verdict = "  " + row.Status.String()
		}
		fmt.Fprintf(stdout, "%-44s %14.6g %14.6g %7.3fx %6s%s\n", row.Name, g.old, g.new, ratio(g.new, g.old), g.label, verdict)
	}
	if err := rep.Err(); err != nil {
		fmt.Fprintf(stdout, "FAIL: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "ok: %d metrics agree\n", rep.Common)
	return 0
}

// loadCaptures reads the captures in a directory, or one capture file,
// keyed by capture name.
func loadCaptures(path string) (map[string]*result, error) {
	files := []string{path}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	sort.Strings(files)
	out := map[string]*result{}
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue // a traced run's spans, written beside its capture
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s: not a benchmark capture (%v)", f, err)
		}
		out[r.captureName()] = &r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no captures", path)
	}
	return out, nil
}
