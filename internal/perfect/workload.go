// Package perfect models the five Perfect Benchmark applications the
// paper measures — FLO52, ARC2D, MDG, OCEAN, ADM — as loop-structure
// workloads for the Cedar simulation, plus a generator for synthetic
// workloads of the same shape.
//
// We cannot run the original Cedar Fortran sources, so each
// application is described by its published structure (Section 2 of
// the paper): which constructs it uses (FLO52 only SDOALL/CDOALL, ADM
// only XDOALL, the others both), how much serial and main-cluster-only
// work it has, its loop granularities, and its global memory
// intensity. Loop counts and work sizes are calibrated so that the
// model reproduces the *shape* of the paper's Tables 1–4 (speedups,
// concurrency, overhead growth); the 1-processor completion time is
// normalized to the paper's (see DESIGN.md, calibration policy).
package perfect

import (
	"fmt"

	"repro/internal/cfrt"
	"repro/internal/xylem"
)

// PhaseKind is the kind of one program phase within a timestep.
type PhaseKind int

const (
	// PhaseSerial is serial code on the main task.
	PhaseSerial PhaseKind = iota
	// PhaseSX is a hierarchical SDOALL/CDOALL nest.
	PhaseSX
	// PhaseX is a flat XDOALL.
	PhaseX
	// PhaseMC is a main-cluster-only CDOALL.
	PhaseMC
	// PhaseMCAcross is a main-cluster-only CDOACROSS.
	PhaseMCAcross
)

// String implements fmt.Stringer.
func (k PhaseKind) String() string {
	switch k {
	case PhaseSerial:
		return "serial"
	case PhaseSX:
		return "sdoall"
	case PhaseX:
		return "xdoall"
	case PhaseMC:
		return "mc-cdoall"
	case PhaseMCAcross:
		return "mc-cdoacross"
	}
	return fmt.Sprintf("PhaseKind(%d)", int(k))
}

// Phase is one phase of a timestep: a serial section or a parallel
// loop with its iteration structure and per-iteration resource usage.
type Phase struct {
	Kind PhaseKind
	Name string
	// Repeat runs the phase this many times per timestep (default 1).
	Repeat int

	// Loop shape (parallel kinds).
	Outer int // spread iterations (SDOALL outer); 1 for flat loops
	Inner int // cluster iterations (CDOALL) or flat count for XDOALL/MC

	// Per-iteration costs (or per-section for serial phases).
	Work       int64   // compute cycles
	WorkJitter float64 // uniform +/- fraction of Work
	GMWords    int     // global memory words referenced
	GMStride   int     // words between consecutive iterations' data (default GMWords: disjoint rows)
	ClusWords  int     // cluster memory words referenced

	// SerialCycles is the serialized portion per iteration for
	// CDOACROSS phases.
	SerialCycles int64
}

func (p Phase) repeat() int {
	if p.Repeat < 1 {
		return 1
	}
	return p.Repeat
}

// App is one application model.
type App struct {
	Name string
	// Steps is the number of timesteps to simulate. The paper's runs
	// execute many more; per-step structure is identical, so overhead
	// fractions are step-count invariant and the completion time is
	// rescaled through the calibration policy.
	Steps int
	// DataWords is the global data footprint in 8-byte words; it
	// determines the page count and hence the paging overheads.
	DataWords int64
	// CacheHitRatio is the cluster cache hit ratio of the app's
	// cluster-memory references.
	CacheHitRatio float64
	// Phases is the per-timestep program structure.
	Phases []Phase
}

// Upper bounds on a workload's sizes. They keep every derived quantity
// (iteration counts, array spans and offsets, the page tables, the
// virtual clock) clear of int64 overflow and the page tables within
// memory. The paper apps sit orders of magnitude below them, even
// weak-scaled to 1024 CEs.
const (
	MaxDataWords = 1 << 30 // data_words
	MaxPerPhase  = 1 << 20 // outer, inner, gm_words, gm_stride, clus_words
	MaxCycles    = 1 << 40 // work, serial_cycles
)

// Validate reports whether the model is self-consistent. Each check
// names the violated constraint, so a hand-written or generated
// workload document that fails gets an actionable message.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("perfect: app with empty name")
	}
	if a.Steps < 1 {
		return fmt.Errorf("perfect: %s: steps %d violates steps >= 1", a.Name, a.Steps)
	}
	if a.DataWords < 1 {
		return fmt.Errorf("perfect: %s: data_words %d violates data_words >= 1", a.Name, a.DataWords)
	}
	if a.DataWords > MaxDataWords {
		return fmt.Errorf("perfect: %s: data_words %d violates data_words <= %d", a.Name, a.DataWords, MaxDataWords)
	}
	if a.CacheHitRatio < 0 || a.CacheHitRatio > 1 {
		return fmt.Errorf("perfect: %s: cache_hit_ratio %v violates 0 <= cache_hit_ratio <= 1",
			a.Name, a.CacheHitRatio)
	}
	if len(a.Phases) == 0 {
		return fmt.Errorf("perfect: %s: no phases (at least one required)", a.Name)
	}
	for i, p := range a.Phases {
		at := fmt.Sprintf("perfect: %s: phase %d (%s %s)", a.Name, i, p.Kind, p.Name)
		if kindNames[p.Kind.String()] != p.Kind {
			return fmt.Errorf("%s: unknown phase kind", at)
		}
		if p.Repeat < 0 {
			return fmt.Errorf("%s: repeat %d violates repeat >= 0", at, p.Repeat)
		}
		if p.Kind != PhaseSerial {
			if p.Inner < 1 {
				return fmt.Errorf("%s: inner %d violates inner >= 1 for parallel phases", at, p.Inner)
			}
			if p.Outer < 0 {
				return fmt.Errorf("%s: outer %d violates outer >= 0", at, p.Outer)
			}
		}
		if p.Work < 0 {
			return fmt.Errorf("%s: work %d violates work >= 0", at, p.Work)
		}
		if p.WorkJitter < 0 || p.WorkJitter > 1 {
			return fmt.Errorf("%s: work_jitter %v violates 0 <= work_jitter <= 1", at, p.WorkJitter)
		}
		if p.GMWords < 0 {
			return fmt.Errorf("%s: gm_words %d violates gm_words >= 0", at, p.GMWords)
		}
		if p.GMStride < 0 {
			return fmt.Errorf("%s: gm_stride %d violates gm_stride >= 0", at, p.GMStride)
		}
		if p.ClusWords < 0 {
			return fmt.Errorf("%s: clus_words %d violates clus_words >= 0", at, p.ClusWords)
		}
		if p.SerialCycles < 0 {
			return fmt.Errorf("%s: serial_cycles %d violates serial_cycles >= 0", at, p.SerialCycles)
		}
		for _, f := range []struct {
			key      string
			val, max int64
		}{
			{"outer", int64(p.Outer), MaxPerPhase},
			{"inner", int64(p.Inner), MaxPerPhase},
			{"work", p.Work, MaxCycles},
			{"gm_words", int64(p.GMWords), MaxPerPhase},
			{"gm_stride", int64(p.GMStride), MaxPerPhase},
			{"clus_words", int64(p.ClusWords), MaxPerPhase},
			{"serial_cycles", p.SerialCycles, MaxCycles},
		} {
			if f.val > f.max {
				return fmt.Errorf("%s: %s %d violates %s <= %d", at, f.key, f.val, f.key, f.max)
			}
		}
		// A serial section with no cost takes no virtual time, so
		// repeating it would spin without the clock, a cycle budget
		// or an interrupt check ever advancing.
		if p.Kind == PhaseSerial && p.Work == 0 && p.GMWords == 0 && p.ClusWords == 0 {
			return fmt.Errorf("%s: a serial phase needs work, gm_words or clus_words >= 1", at)
		}
	}
	if min := a.MinDataWords(); a.DataWords < min {
		return fmt.Errorf("perfect: %s: data_words %d below the phase footprint %d (sum of phase spans)",
			a.Name, a.DataWords, min)
	}
	return nil
}

// MinDataWords returns the smallest global footprint that can hold
// every phase's array slice — the sum of the phase spans. An App whose
// DataWords is below this would wrap slices over each other in the
// data region, so Validate rejects it.
func (a App) MinDataWords() int64 {
	var total int64
	for i := range a.Phases {
		if total > MaxDataWords {
			// No valid DataWords holds it; stop before the sum of
			// spans can overflow.
			break
		}
		total += a.Phases[i].span()
	}
	return total
}

// WithSteps returns a copy of the app simulating n timesteps (for
// quick tests versus full table generation).
func (a App) WithSteps(n int) App {
	a.Steps = n
	return a
}

// Scaled returns a weak-scaled copy of the app for a machine factor
// times the paper's 32-CE Cedar: parallel loop iteration counts and
// the global data footprint grow with the factor so per-CE work stays
// roughly constant, while serial sections are left untouched — the
// fixed Amdahl fraction whose growing share is exactly what the
// paper's overhead decomposition exposes on larger machines. The name
// is unchanged so scaled runs compare against their own 1-processor
// base (core.ContentionOverhead matches results by app name).
func (a App) Scaled(factor int) App {
	if factor <= 1 {
		return a
	}
	a.DataWords *= int64(factor)
	phases := make([]Phase, len(a.Phases))
	copy(phases, a.Phases)
	for i := range phases {
		p := &phases[i]
		switch p.Kind {
		case PhaseSerial:
			// Serial code does not grow with the machine.
		case PhaseSX:
			p.Outer *= factor
		default:
			p.Inner *= factor
		}
	}
	a.Phases = phases
	return a
}

// ScaleFactorFor returns the weak-scaling factor for a machine with
// the given CE count relative to the paper's 32-CE Cedar: 1 at or
// below 32 CEs, the CE ratio (rounded up) beyond.
func ScaleFactorFor(ces int) int {
	if ces <= 32 {
		return 1
	}
	return (ces + 31) / 32
}

// TotalIterations returns the flat iteration count executed across
// the whole run (all steps), for sizing checks.
func (a App) TotalIterations() int {
	total := 0
	for _, p := range a.Phases {
		if p.Kind == PhaseSerial {
			continue
		}
		o := p.Outer
		if o < 1 {
			o = 1
		}
		total += o * p.Inner * p.repeat()
	}
	return total * a.Steps
}

// Total returns the phase's flat iteration count.
func (p *Phase) Total() int {
	o, in := p.Outer, p.Inner
	if o < 1 {
		o = 1
	}
	if in < 1 {
		in = 1
	}
	return o * in
}

// stride returns the words between consecutive iterations' data.
func (p *Phase) stride() int64 {
	if p.GMStride > 0 {
		return int64(p.GMStride)
	}
	return int64(p.GMWords)
}

// span returns one execution's data footprint: iterations sweep
// disjoint (or stride-overlapped) rows of the phase's array slice.
func (p *Phase) span() int64 {
	s := int64(p.Total())*p.stride() + int64(p.GMWords)
	if p.Kind == PhaseSerial {
		s = int64(p.GMWords)
	}
	if s < 512 {
		s = 512
	}
	return s
}

// Program builds the cfrt program for this app. Each phase owns an
// array slice of the global data region; its iterations sweep the
// slice in disjoint rows (stride GMStride), so pages are first-touched
// by the CE whose iteration lands on them — in parallel, mostly
// without pileups, like a real grid sweep. Repeats within a timestep
// reuse the slice (warm); between timesteps the slice's base advances
// so a fresh fraction of the footprint faults in each step, spreading
// virtual-memory activity across the run. DataWords therefore sets the
// total page footprint directly.
func (a App) Program(region *xylem.Region) func(mt *cfrt.Main) {
	// Lay the slices out: each phase gets span + its share of the
	// leftover footprint, consumed across the steps. Serial phases get
	// a heavily weighted share: the main task's serial code
	// demand-loads input and workspace data (initialization, boundary
	// updates), which is where the paper's *sequential* page faults
	// come from — only one CE is running, so nothing piles up.
	const serialWeight = 6
	type layout struct{ base, span, advance int64 }
	lay := make([]layout, len(a.Phases))
	weight := func(p *Phase) int64 {
		w := p.span()
		if p.Kind == PhaseSerial {
			w *= serialWeight
		}
		return w
	}
	var weightTotal, spanTotal int64
	for i := range a.Phases {
		spanTotal += a.Phases[i].span()
		weightTotal += weight(&a.Phases[i])
	}
	leftover := region.Words - spanTotal
	if leftover < 0 {
		leftover = 0
	}
	var cursor int64
	for i := range a.Phases {
		p := &a.Phases[i]
		share := leftover * weight(p) / maxInt64(weightTotal, 1)
		lay[i] = layout{
			base:    cursor,
			span:    p.span(),
			advance: share / int64(a.Steps),
		}
		cursor += p.span() + share
	}

	return func(mt *cfrt.Main) {
		for step := 0; step < a.Steps; step++ {
			for pi := range a.Phases {
				p := &a.Phases[pi]
				base := (lay[pi].base + int64(step)*lay[pi].advance) % region.Words
				fresh := lay[pi].advance
				for rep := 0; rep < p.repeat(); rep++ {
					switch p.Kind {
					case PhaseSerial:
						mt.Serial(func(ec *cfrt.ExecCtx) {
							// Serial code walks its whole fresh slice
							// for the step (demand-loading), then does
							// its compute section.
							if fresh > 0 {
								ec.Global(region, base, int(fresh))
							}
							a.section(ec, p, region, base, 0)
						})
					case PhaseSX:
						mt.Sdoall(a.loop(p, region, base))
					case PhaseX:
						mt.Xdoall(a.loop(p, region, base))
					case PhaseMC, PhaseMCAcross:
						mt.MCLoop(a.loop(p, region, base))
					}
				}
			}
		}
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// loop builds the cfrt loop for a parallel phase.
func (a App) loop(p *Phase, region *xylem.Region, base int64) *cfrt.Loop {
	l := &cfrt.Loop{
		Name:  p.Name,
		Outer: p.Outer,
		Inner: p.Inner,
		Body: func(ec *cfrt.ExecCtx, i int) {
			a.section(ec, p, region, base, i)
		},
	}
	if p.Kind == PhaseMCAcross {
		l.SerialCycles = p.SerialCycles
	}
	return l
}

// section executes one iteration (or serial section) worth of work.
func (a App) section(ec *cfrt.ExecCtx, p *Phase, region *xylem.Region, base int64, i int) {
	work := p.Work
	if p.WorkJitter > 0 {
		span := int64(float64(p.Work) * p.WorkJitter)
		if span > 0 {
			work += ec.Rand().Int63n(2*span+1) - span
		}
	}
	ec.Compute(work)
	if p.GMWords > 0 {
		// Two vector references per iteration (operand read, result
		// write) into the iteration's own row of the phase's slice.
		half := p.GMWords / 2
		if half < 1 {
			half = p.GMWords
		}
		off := (base + int64(i)*p.stride()) % region.Words
		ec.Global(region, off, half)
		if p.GMWords-half > 0 {
			off2 := (off + int64(half)) % region.Words
			ec.Global(region, off2, p.GMWords-half)
		}
	}
	if p.ClusWords > 0 {
		ec.ClusterMem(p.ClusWords, a.CacheHitRatio)
	}
}
