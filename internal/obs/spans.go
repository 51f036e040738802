package obs

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/hpm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// CatRT, CatOS, CatMem, CatLoop, CatFault are the span category groups
// the exporters recognize.
const (
	CatRT    = "rt"    // runtime-library protocol work
	CatOS    = "os"    // Xylem activities
	CatMem   = "mem"   // hardware stalls and queueing
	CatLoop  = "loop"  // whole parallel-loop windows (async track)
	CatFault = "fault" // fault-injection activations
)

// pairRule maps an hpm start/end event pair on one CE to a span.
type pairRule struct {
	start, end hpm.EventID
	name, cat  string
}

// tracePairs are the per-CE event pairs the tracer folds into spans:
// the runtime-library trigger points of Section 4 of the paper, then
// Xylem's service instrumentation and the memory stall trigger
// points. A start may open several rules (a page fault ends as either
// class) and an event may end one rule while starting another (lock
// granted ends the spin and starts the service).
var tracePairs = []pairRule{
	{hpm.EvSerialStart, hpm.EvSerialEnd, "serial", CatRT},
	{hpm.EvMCLoopStart, hpm.EvMCLoopEnd, "mc-loop", CatRT},
	{hpm.EvIterStart, hpm.EvIterEnd, "iter", CatRT},
	{hpm.EvPickStart, hpm.EvPickEnd, "pick", CatRT},
	{hpm.EvBarrierEnter, hpm.EvBarrierExit, "barrier", CatRT},
	{hpm.EvWaitStart, hpm.EvWaitEnd, "helper-wait", CatRT},
	{hpm.EvOSEnter, hpm.EvOSGranted, "kl-spin", CatOS},
	{hpm.EvOSGranted, hpm.EvOSExit, "", CatOS}, // named by its OS category
	{hpm.EvIntrStart, hpm.EvIntrEnd, "interrupt-delivery", CatOS},
	{hpm.EvPgFltStart, hpm.EvPgFltSeqEnd, "pgflt(seq)", CatOS},
	{hpm.EvPgFltStart, hpm.EvPgFltConcEnd, "pgflt(conc)", CatOS},
	{hpm.EvGMStallStart, hpm.EvGMStallEnd, "gm-stall", CatMem},
}

// FoldTrace folds a raw cedarhpm event stream into hierarchical spans:
// per-CE spans for the tracePairs (runtime-library sections, loops,
// iterations, pickups, barrier and helper waits; kernel-lock spin and
// the OS service it guards, named by metrics.OSCategory; interrupt
// delivery; page faults; slow memory stalls), per-CE
// loop-participation spans (loop post to barrier exit on the main
// lead; helper join to detach on helper leads), and one machine-track
// async span per posted loop. Names supplies loop names (a
// cfrt.Runtime is one; nil names loops "loop#<gen>"). Unmatched
// starts — a truncated trace buffer or a fail-stopped CE — are
// dropped, and a lock grant that did not wait yields no kl-spin.
//
// The returned spans are sorted by start time (end time breaks ties,
// longest first, so enclosing spans precede their children).
func FoldTrace(records []hpm.Record, names interface{ LoopName(int64) string }) ([]Span, []Instant) {
	type openKey struct {
		ce    int
		start hpm.EventID
	}
	open := map[openKey]hpm.Record{}   // per-CE pair starts
	loopOpen := map[int64]hpm.Record{} // machine loop window, by generation
	partOpen := map[int]hpm.Record{}   // per-CE loop participation
	var starts [hpm.NumEvents]bool
	endOf := map[hpm.EventID]pairRule{}
	for _, p := range tracePairs {
		starts[p.start] = true
		endOf[p.end] = p
	}

	loopName := func(gen int64) string {
		if names != nil {
			return names.LoopName(gen)
		}
		return fmt.Sprintf("loop#%d", gen)
	}

	var spans []Span
	var instants []Instant
	for _, rec := range records {
		if p, ok := endOf[rec.Event]; ok {
			k := openKey{rec.CE, p.start}
			if s, exists := open[k]; exists {
				delete(open, k)
				sp := Span{Track: rec.CE, Name: p.name, Cat: p.cat, Start: s.At, End: rec.At, Aux: s.Aux}
				switch p.start {
				case hpm.EvOSEnter:
					sp.Aux = 0
				case hpm.EvOSGranted:
					sp.Name, sp.Aux = metrics.OSCategory(s.Aux).String(), 0
				}
				if p.start != hpm.EvOSEnter || sp.End > sp.Start {
					spans = append(spans, sp)
				}
			}
		}
		if starts[rec.Event] {
			open[openKey{rec.CE, rec.Event}] = rec
		}
		switch rec.Event {
		case hpm.EvLoopPost:
			loopOpen[rec.Aux] = rec
			partOpen[rec.CE] = rec
		case hpm.EvHelperJoin:
			partOpen[rec.CE] = rec
			instants = append(instants, Instant{Track: rec.CE, Name: "join", Cat: CatRT, At: rec.At, Aux: rec.Aux})
		case hpm.EvHelperDetach:
			if s, ok := partOpen[rec.CE]; ok {
				spans = append(spans, Span{
					Track: rec.CE, Name: loopName(s.Aux), Cat: CatLoop,
					Start: s.At, End: rec.At, Aux: s.Aux,
				})
				delete(partOpen, rec.CE)
			}
		case hpm.EvBarrierExit:
			if s, ok := partOpen[rec.CE]; ok && s.Aux == rec.Aux {
				spans = append(spans, Span{
					Track: rec.CE, Name: loopName(s.Aux), Cat: CatLoop,
					Start: s.At, End: rec.At, Aux: s.Aux,
				})
				delete(partOpen, rec.CE)
			}
			if s, ok := loopOpen[rec.Aux]; ok {
				spans = append(spans, Span{
					Track: TrackMachine, Name: loopName(rec.Aux), Cat: CatLoop,
					Start: s.At, End: rec.At, Aux: rec.Aux,
				})
				delete(loopOpen, rec.Aux)
			}
		case hpm.EvCtxSwitch:
			instants = append(instants, Instant{Track: rec.CE, Name: "ctx-switch", Cat: CatOS, At: rec.At, Aux: rec.Aux})
		case hpm.EvFaultInject:
			instants = append(instants, Instant{Track: TrackMachine, Name: "fault-inject", Cat: CatFault, At: rec.At, Aux: rec.Aux})
		case hpm.EvGMHot:
			instants = append(instants, Instant{Track: TrackMachine, Name: "gm-hot", Cat: CatMem, At: rec.At, Aux: rec.Aux})
		}
	}
	SortSpans(spans)
	return spans, instants
}

// FoldFaults turns a fault injector's activation log into trace
// marks on the machine track: a lock stall, whose extent is known, as
// a span covering the window every kernel entry spun through; every
// other activation as an instant named by its kind. Each CE's first
// fail-stop also marks the CE's own track with a "ce-fail" instant.
func FoldFaults(applied []faults.Applied) ([]Span, []Instant) {
	var spans []Span
	var instants []Instant
	failed := map[int]bool{}
	for _, a := range applied {
		ev := a.Event
		if ev.Kind == faults.CEFail && !failed[ev.Target] {
			failed[ev.Target] = true
			instants = append(instants, Instant{Track: ev.Target, Name: "ce-fail", Cat: CatFault, At: a.At})
		}
		if ev.Kind == faults.LockStall {
			spans = append(spans, Span{Track: TrackMachine, Name: ev.Kind.String(), Cat: CatFault,
				Start: a.At, End: a.At + ev.Span, Aux: int64(ev.Target)})
		} else {
			instants = append(instants, Instant{Track: TrackMachine, Name: ev.Kind.String(), Cat: CatFault,
				At: a.At, Aux: int64(ev.Target)})
		}
	}
	return spans, instants
}

// SortSpans orders spans by start time; ties put the longest
// (enclosing) span first, so a stack-based consumer sees parents
// before children.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
}

// ClampSpans truncates spans to [0, ct] and drops spans that start at
// or after ct — exporters use it so artifacts never extend past the
// completion time (helpers wind down exactly at CT).
func ClampSpans(spans []Span, ct sim.Time) []Span {
	out := spans[:0:0]
	for _, s := range spans {
		if s.Start >= ct && ct > 0 {
			continue
		}
		if ct > 0 && s.End > ct {
			s.End = ct
		}
		out = append(out, s)
	}
	return out
}
