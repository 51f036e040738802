package cfrt

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// ExecCtx is the execution context a loop body or serial section runs
// in. Its methods charge the CE's time to the right accounting
// category: compute cycles to the section's category (serial,
// main-cluster loop, or s(x)doall iteration), global memory stalls to
// the GM-stall category, cluster memory stalls to the cache-stall
// category, and page faults wherever the OS model puts them.
//
// Compute, Global and ClusterMem cannot block unless a page faults, so
// they are recorded as steps and played after the body or section
// returns as one callback chain (sim.Proc.Chain): the CE's process
// parks once per iteration instead of switching once per step, and a
// Global whose pages are not all mapped runs on the process, where it
// may fault. Every other method (Poll, Now, Rand, CE) first plays what
// was recorded, so the body sees the time, random draws and process it
// would see if each call ran at once.
type ExecCtx struct {
	ce  *cluster.CE
	rt  *Runtime
	cat metrics.Category

	// next is advance, bound once so that no chain allocates (see
	// Runtime.bodyCtx); steps are the recorded steps, pos the next one
	// to play, and inStep reports that the one before it is still in
	// progress.
	next   func() sim.Duration
	steps  []bodyStep
	pos    int
	inStep bool
}

// stepKind names the ExecCtx call a bodyStep records.
type stepKind uint8

const (
	stepCompute stepKind = iota
	stepGlobal
	stepCache
)

// bodyStep is one recorded Compute (n cycles), Global (words at word
// offset n of region) or ClusterMem (words at hit ratio hit).
type bodyStep struct {
	kind   stepKind
	words  int
	n      int64
	region *xylem.Region
	hit    float64
}

// Category returns the accounting category user work in this context
// is charged to.
func (ec *ExecCtx) Category() metrics.Category { return ec.cat }

// Runtime returns the runtime this context executes under.
func (ec *ExecCtx) Runtime() *Runtime { return ec.rt }

// CE returns the CE the context runs on, after playing any recorded
// steps: a caller that uses the CE directly (its process, a lock, a
// Spend) needs the clock where the body's earlier calls left it.
func (ec *ExecCtx) CE() *cluster.CE {
	ec.flush()
	return ec.ce
}

// Compute spends cycles of pure computation (vector pipelines,
// register arithmetic).
func (ec *ExecCtx) Compute(cycles int64) {
	ec.steps = append(ec.steps, bodyStep{kind: stepCompute, n: cycles})
}

// Global references words 8-byte words of the region at the given word
// offset: the pages are touched (faulting on first touch) and the data
// moves through the network and global memory, stalling the CE.
func (ec *ExecCtx) Global(r *xylem.Region, offset int64, words int) {
	ec.steps = append(ec.steps, bodyStep{kind: stepGlobal, words: words, n: offset, region: r})
}

// ClusterMem references words of cluster memory through the shared
// cache with the given expected hit ratio.
func (ec *ExecCtx) ClusterMem(words int, hitRatio float64) {
	ec.steps = append(ec.steps, bodyStep{kind: stepCache, words: words, hit: hitRatio})
}

// Poll gives the OS a preemption point (interrupt and context-switch
// delivery).
func (ec *ExecCtx) Poll() {
	ec.flush()
	ec.rt.OS.Poll(ec.ce)
}

// Rand returns the simulation's deterministic random source, for
// workload models that want body-to-body variance.
func (ec *ExecCtx) Rand() *rand.Rand {
	ec.flush()
	return ec.rt.M.Kernel.Rand()
}

// Now returns the current virtual time.
func (ec *ExecCtx) Now() sim.Time {
	ec.flush()
	return ec.ce.Now()
}

// run executes s on the CE's process, for a step the chain hands back
// (see flush): a Global first touches its pages, faulting as needed,
// then the step holds for its time.
func (ec *ExecCtx) run(s *bodyStep) {
	if s.kind == stepGlobal {
		s.region.Touch(ec.ce, s.n, int64(s.words))
	}
	if d := ec.start(s); d > 0 {
		ec.ce.Proc.Hold(d)
		ec.ce.FinishStep()
	}
}

// start begins s on the CE without holding and returns its duration
// (see cluster.CE.StartSpend).
func (ec *ExecCtx) start(s *bodyStep) sim.Duration {
	ce := ec.ce
	switch s.kind {
	case stepGlobal:
		d, _ := ce.StartGMAccess(s.region.Addr(s.n), s.words, metrics.CatGMStall)
		return d
	case stepCache:
		return ce.StartCacheAccess(s.words, s.hit)
	}
	return ce.StartSpend(sim.Duration(s.n), ec.cat)
}

// flush plays the recorded steps as a callback chain. A step the chain
// hands back runs on the process, and the chain resumes after it.
func (ec *ExecCtx) flush() {
	if len(ec.steps) == 0 {
		return
	}
	for {
		ec.ce.Proc.Chain(ec.next)
		if ec.pos == len(ec.steps) {
			break
		}
		ec.run(&ec.steps[ec.pos])
		ec.pos++
	}
	ec.steps = ec.steps[:0]
	ec.pos = 0
}

// advance is the chain's step function (see sim.Proc.Chain): it
// finishes the step in progress, if any, then starts recorded steps
// until one takes time and returns that step's duration. It returns 0
// when every step has run, or when the step at pos must run on the
// process: a Global whose span has a page unmapped would fault, and a
// fault blocks.
func (ec *ExecCtx) advance() sim.Duration {
	if ec.inStep {
		ec.inStep = false
		ec.ce.FinishStep()
		ec.pos++
	}
	for ; ec.pos < len(ec.steps); ec.pos++ {
		s := &ec.steps[ec.pos]
		if s.kind == stepGlobal && !s.region.Mapped(ec.ce, s.n, int64(s.words)) {
			return 0
		}
		if d := ec.start(s); d > 0 {
			ec.inStep = true
			return d
		}
	}
	return 0
}
