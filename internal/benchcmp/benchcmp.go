// Package benchcmp is the shared comparison core behind the repo's
// historical performance gates: cmd/cedarbenchdiff (go test -json
// benchmark logs, events/sec) and scenario.Diff (declarative scenario
// captures, BENCH_scenarios.json) both gate through Compare, so the
// pass/fail semantics — tolerance bands, the inverted -min-speedup
// gate, exact-match drift, and what happens when an entry disappears
// from the fresh run — live in exactly one place.
//
// Compare takes two name → value maps where higher values are better
// (events per second, not ns/op; callers invert ns/op before
// comparing) plus a per-name Spec:
//
//   - Spec{Tol: 0.5} allows the new value to fall to half the old
//     before failing — the loose regression band for wall-clock
//     throughput across machine generations.
//   - Spec{MinSpeedup: 1.3} additionally demands new/old >= 1.3 — the
//     inverted gate that proves an optimization actually outruns a
//     pre-refactor capture.
//   - Spec{Exact: true} demands bit-equality — for deterministic model
//     outputs (completion times, overhead-decomposition cycles) where
//     any drift means the simulation changed, not the machine.
//
// Entries present only in the old capture are reported as MISSING.
// Whether that fails the gate is the caller's choice (missingFatal):
// the plain tolerance mode keeps it non-fatal because a renamed
// benchmark should update the baseline, but any mode that proves a
// property of a specific entry (min-speedup, scenario captures) must
// fail — otherwise deleting the gated benchmark from the fresh log
// makes the gate pass vacuously, proving nothing.
package benchcmp

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Spec is the per-entry gate: how much worse (or how much better) the
// new value must be relative to the old one.
type Spec struct {
	// Tol is the allowed shortfall fraction: new/old >= 1-Tol passes.
	// Must be in [0, 1).
	Tol float64
	// MinSpeedup, when > 0, additionally requires new/old >= MinSpeedup.
	MinSpeedup float64
	// Exact requires the values to be bit-equal; Tol and MinSpeedup are
	// ignored. For deterministic model outputs.
	Exact bool
}

// Status classifies one compared entry.
type Status int

const (
	// StatusOK: the entry passed its gate.
	StatusOK Status = iota
	// StatusRegression: new/old fell below 1-Tol.
	StatusRegression
	// StatusBelowSpeedup: new/old is within tolerance but below the
	// required MinSpeedup factor.
	StatusBelowSpeedup
	// StatusDrift: an Exact entry's value changed.
	StatusDrift
	// StatusMissing: the entry is in the old capture but not the new.
	StatusMissing
	// StatusNew: the entry is in the new capture but not the old
	// (informational, never fatal).
	StatusNew
)

// String returns the verdict text the table prints (empty for OK).
func (s Status) String() string {
	switch s {
	case StatusRegression:
		return "REGRESSION"
	case StatusBelowSpeedup:
		return "BELOW"
	case StatusDrift:
		return "DRIFT"
	case StatusMissing:
		return "MISSING"
	case StatusNew:
		return "new"
	}
	return ""
}

// Row is one compared entry.
type Row struct {
	Name  string
	Old   float64
	New   float64
	Ratio float64 // new/old; 0 when either side is absent
	// Want is the MinSpeedup factor a StatusBelowSpeedup row missed.
	Want   float64
	Status Status
	// Fatal marks rows that fail the gate. Missing rows are fatal only
	// under Compare's missingFatal mode.
	Fatal bool
}

// Report is the outcome of one Compare call.
type Report struct {
	Rows []Row
	// Common counts entries present in both captures.
	Common int
	// Failed counts fatal rows (regressions, missed speedups, drifted
	// exact values, and — under missingFatal — missing entries).
	Failed int
}

// Compare gates newVals against oldVals entry by entry. spec supplies
// the per-name gate (a uniform func(string) Spec closure for the
// benchmark CLIs, a per-metric lookup for scenario captures).
// missingFatal decides whether an entry present only in oldVals fails
// the gate; see the package comment for when each choice is right.
// Rows are ordered: old-capture names sorted, then new-only names
// sorted.
func Compare(oldVals, newVals map[string]float64, spec func(name string) Spec, missingFatal bool) *Report {
	rep := &Report{}
	names := make([]string, 0, len(oldVals))
	for n := range oldVals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		oldV := oldVals[n]
		row := Row{Name: n, Old: oldV}
		newV, ok := newVals[n]
		if !ok {
			row.Status = StatusMissing
			row.Fatal = missingFatal
			if row.Fatal {
				rep.Failed++
			}
			rep.Rows = append(rep.Rows, row)
			continue
		}
		rep.Common++
		row.New = newV
		if oldV != 0 {
			row.Ratio = newV / oldV
		} else if newV == 0 {
			row.Ratio = 1
		}
		sp := spec(n)
		switch {
		case sp.Exact:
			if oldV != newV {
				row.Status = StatusDrift
				row.Fatal = true
			}
		case row.Ratio < 1.0-sp.Tol:
			row.Status = StatusRegression
			row.Fatal = true
		case sp.MinSpeedup > 0 && row.Ratio < sp.MinSpeedup:
			row.Status = StatusBelowSpeedup
			row.Want = sp.MinSpeedup
			row.Fatal = true
		}
		if row.Fatal {
			rep.Failed++
		}
		rep.Rows = append(rep.Rows, row)
	}
	var fresh []string
	for n := range newVals {
		if _, ok := oldVals[n]; !ok {
			fresh = append(fresh, n)
		}
	}
	sort.Strings(fresh)
	for _, n := range fresh {
		rep.Rows = append(rep.Rows, Row{Name: n, New: newVals[n], Status: StatusNew})
	}
	return rep
}

// Err returns nil when the gate passed, and otherwise an error naming
// why: an empty intersection (the gate matched nothing — always fatal,
// since a capture that gates zero entries proves nothing) or the fatal
// row count.
func (r *Report) Err() error {
	if r.Common == 0 {
		return errors.New("no entry appears in both captures; the gate matched nothing")
	}
	if r.Failed > 0 {
		return fmt.Errorf("%d of %d gated entries failed", r.Failed, r.Failed+okCount(r))
	}
	return nil
}

// okCount counts gateable rows that passed (common rows plus fatal
// missing rows are the gated population).
func okCount(r *Report) int {
	n := 0
	for _, row := range r.Rows {
		if row.Status == StatusOK {
			n++
		}
	}
	return n
}

// WriteTable renders the report in the cedarbenchdiff table layout.
// oldLabel and newLabel title the value columns ("old ev/s",
// "new ev/s" for the benchmark CLIs; "old", "new" for scenario
// captures). The name column widens to the longest entry.
func (r *Report) WriteTable(w io.Writer, oldLabel, newLabel string) {
	width := 44
	for _, row := range r.Rows {
		if len(row.Name) > width {
			width = len(row.Name)
		}
	}
	fmt.Fprintf(w, "%-*s %14s %14s %8s\n", width, "entry", oldLabel, newLabel, "ratio")
	for _, row := range r.Rows {
		switch row.Status {
		case StatusMissing:
			verdict := ""
			if row.Fatal {
				verdict = "  MISSING"
			}
			fmt.Fprintf(w, "%-*s %14.6g %14s %8s%s\n", width, row.Name, row.Old, "missing", "-", verdict)
		case StatusNew:
			fmt.Fprintf(w, "%-*s %14s %14.6g %8s\n", width, row.Name, "(no baseline)", row.New, "-")
		default:
			verdict := ""
			switch row.Status {
			case StatusRegression:
				verdict = "  REGRESSION"
			case StatusBelowSpeedup:
				verdict = fmt.Sprintf("  BELOW %.2fx", row.Want)
			case StatusDrift:
				verdict = "  DRIFT"
			}
			fmt.Fprintf(w, "%-*s %14.6g %14.6g %7.2fx%s\n", width, row.Name, row.Old, row.New, row.Ratio, verdict)
		}
	}
}
