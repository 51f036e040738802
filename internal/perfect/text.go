package perfect

// The textual workload form: a canonical one-document serialization of
// App/Phase so workloads are data, not Go constructors. The format is
// the same strict hand-parsed style as .scenario files (no YAML
// dependency): full-line # comments, top-level `key: value` scalars,
// and `phase: <kind> <name>` lines each opening a block of two-space-
// indented `key: value` lines.
//
//	# FLO52 — transonic flow past an airfoil.
//	workload: FLO52
//	steps: 8
//	data_words: 77824
//	cache_hit_ratio: 0.92
//	phase: serial resid-setup
//	  work: 50000
//	  gm_words: 256
//	phase: sdoall fine-sweep
//	  repeat: 6
//	  outer: 12
//	  inner: 16
//	  work: 500
//	  work_jitter: 0.15
//	  gm_words: 160
//	  clus_words: 300
//
// PrintWorkload emits the canonical form: fixed key order, a field
// present exactly when its value is non-zero. ParseWorkload is its
// strict inverse, so parse(print(app)) is value-identical for every
// representable App and print(parse(doc)) is byte-identical for every
// canonical document — the round-trip contract the committed
// testdata/workloads/*.workload goldens pin.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// WorkloadExt is the file extension workload documents use.
const WorkloadExt = ".workload"

// kindNames maps the textual kind tokens to PhaseKind, matching
// PhaseKind.String.
var kindNames = map[string]PhaseKind{
	"serial":       PhaseSerial,
	"sdoall":       PhaseSX,
	"xdoall":       PhaseX,
	"mc-cdoall":    PhaseMC,
	"mc-cdoacross": PhaseMCAcross,
}

// KindByName returns the PhaseKind for a textual kind token
// (PhaseKind.String's vocabulary).
func KindByName(name string) (PhaseKind, bool) {
	k, ok := kindNames[name]
	return k, ok
}

// fnum renders a float in the canonical workload form: the shortest
// representation that round-trips exactly (strconv 'g', precision -1).
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PrintWorkload renders the app as a canonical workload document.
func PrintWorkload(a App) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "workload: %s\n", a.Name)
	if a.Steps != 0 {
		fmt.Fprintf(&b, "steps: %d\n", a.Steps)
	}
	if a.DataWords != 0 {
		fmt.Fprintf(&b, "data_words: %d\n", a.DataWords)
	}
	if a.CacheHitRatio != 0 {
		fmt.Fprintf(&b, "cache_hit_ratio: %s\n", fnum(a.CacheHitRatio))
	}
	for _, p := range a.Phases {
		if p.Name != "" {
			fmt.Fprintf(&b, "phase: %s %s\n", p.Kind, p.Name)
		} else {
			fmt.Fprintf(&b, "phase: %s\n", p.Kind)
		}
		if p.Repeat != 0 {
			fmt.Fprintf(&b, "  repeat: %d\n", p.Repeat)
		}
		if p.Outer != 0 {
			fmt.Fprintf(&b, "  outer: %d\n", p.Outer)
		}
		if p.Inner != 0 {
			fmt.Fprintf(&b, "  inner: %d\n", p.Inner)
		}
		if p.Work != 0 {
			fmt.Fprintf(&b, "  work: %d\n", p.Work)
		}
		if p.WorkJitter != 0 {
			fmt.Fprintf(&b, "  work_jitter: %s\n", fnum(p.WorkJitter))
		}
		if p.GMWords != 0 {
			fmt.Fprintf(&b, "  gm_words: %d\n", p.GMWords)
		}
		if p.GMStride != 0 {
			fmt.Fprintf(&b, "  gm_stride: %d\n", p.GMStride)
		}
		if p.ClusWords != 0 {
			fmt.Fprintf(&b, "  clus_words: %d\n", p.ClusWords)
		}
		if p.SerialCycles != 0 {
			fmt.Fprintf(&b, "  serial_cycles: %d\n", p.SerialCycles)
		}
	}
	return []byte(b.String())
}

// ParseWorkload parses a workload document into an App and validates
// it, so a malformed or self-inconsistent workload is rejected with an
// error naming the offending line or constraint.
func ParseWorkload(data []byte) (App, error) {
	var a App
	var cur *Phase // open phase block, nil at top level
	seen := map[string]bool{}
	var phaseSeen map[string]bool
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indented := strings.HasPrefix(line, "  ")
		if indented && cur == nil {
			return a, fmt.Errorf("workload line %d: unexpected indentation (only phase fields indent)", lineNo)
		}
		if indented && line != "  "+trimmed {
			return a, fmt.Errorf("workload line %d: phase fields indent by exactly two spaces", lineNo)
		}
		key, val, ok := strings.Cut(trimmed, ":")
		if !ok {
			return a, fmt.Errorf("workload line %d: %q is not key: value", lineNo, trimmed)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)

		if indented {
			if phaseSeen[key] {
				return a, fmt.Errorf("workload line %d: duplicate phase key %q", lineNo, key)
			}
			phaseSeen[key] = true
			if err := parsePhaseField(cur, key, val); err != nil {
				return a, fmt.Errorf("workload line %d: %s: %v", lineNo, key, err)
			}
			continue
		}

		// A top-level key closes any open phase block.
		cur = nil
		if key != "phase" {
			if seen[key] {
				return a, fmt.Errorf("workload line %d: duplicate key %q", lineNo, key)
			}
			seen[key] = true
		}
		var err error
		switch key {
		case "workload":
			a.Name = val
		case "steps":
			a.Steps, err = strconv.Atoi(val)
		case "data_words":
			a.DataWords, err = strconv.ParseInt(val, 10, 64)
		case "cache_hit_ratio":
			a.CacheHitRatio, err = strconv.ParseFloat(val, 64)
		case "phase":
			kindTok, name, _ := strings.Cut(val, " ")
			kind, ok := KindByName(kindTok)
			if !ok {
				return a, fmt.Errorf("workload line %d: unknown phase kind %q (want %s)",
					lineNo, kindTok, strings.Join(kindTokens(), ", "))
			}
			a.Phases = append(a.Phases, Phase{Kind: kind, Name: strings.TrimSpace(name)})
			cur = &a.Phases[len(a.Phases)-1]
			phaseSeen = map[string]bool{}
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return a, fmt.Errorf("workload line %d: %s: %v", lineNo, key, err)
		}
	}
	if err := a.Validate(); err != nil {
		return a, err
	}
	return a, nil
}

// parsePhaseField sets one phase-block field.
func parsePhaseField(p *Phase, key, val string) error {
	var err error
	switch key {
	case "repeat":
		p.Repeat, err = strconv.Atoi(val)
	case "outer":
		p.Outer, err = strconv.Atoi(val)
	case "inner":
		p.Inner, err = strconv.Atoi(val)
	case "work":
		p.Work, err = strconv.ParseInt(val, 10, 64)
	case "work_jitter":
		p.WorkJitter, err = strconv.ParseFloat(val, 64)
	case "gm_words":
		p.GMWords, err = strconv.Atoi(val)
	case "gm_stride":
		p.GMStride, err = strconv.Atoi(val)
	case "clus_words":
		p.ClusWords, err = strconv.Atoi(val)
	case "serial_cycles":
		p.SerialCycles, err = strconv.ParseInt(val, 10, 64)
	default:
		err = fmt.Errorf("unknown phase key %q", key)
	}
	return err
}

// kindTokens lists the textual phase kinds in declaration order.
func kindTokens() []string {
	return []string{"serial", "sdoall", "xdoall", "mc-cdoall", "mc-cdoacross"}
}

// LoadWorkload reads and parses one .workload file.
func LoadWorkload(path string) (App, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return App{}, err
	}
	a, err := ParseWorkload(data)
	if err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
