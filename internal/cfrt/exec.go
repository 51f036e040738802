package cfrt

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/hpm"
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
// they are recorded as steps and played as one callback chain
// (sim.Proc.Chain, see play), and a Global whose pages are not all
// mapped takes its faults on the process. In a cluster job the same
// chain also drives the CE's iterations (see execJob): it picks up an
// iteration, runs the body in record mode, plays the recorded steps,
// runs a CDOACROSS iteration's serialized region, and picks up the
// next, so a body runs inside a kernel callback, where there is no
// process to play its steps on. A loop body may therefore call Rand,
// Now and CE only before its first recorded step. A serial section
// runs on the process: there Rand, Now and CE first play what was
// recorded, so the caller sees the time, random draws and process it
// would see if each call ran at once.
type ExecCtx struct {
	ce  *cluster.CE
	rt  *Runtime
	cat metrics.Category

	// next is advance, bound once so that no chain allocates (see
	// Runtime.bodyCtx); steps are the recorded steps, pos the next one
	// to play, inStep reports that a step is in progress, and touched
	// that the process has taken the faults of the Global at pos (see
	// touch).
	next    func() sim.Duration
	steps   []bodyStep
	pos     int
	inStep  bool
	touched bool

	// The CE's share of a cluster job: the job, where its pickup or
	// chain stands, and the iteration picked up. held is the lock the
	// CE holds, the XDOALL iteration lock or the doacross lock, and
	// [claim, claimEnd) is what is left of the chunk its last XDOALL
	// pickup claimed.
	job             *clusterJob
	phase           phase
	iter            int
	held            *sim.Resource
	claim, claimEnd int
}

// phase is where a CE stands in its share of a cluster job. The zero
// phase plays recorded steps and then hands back to the process (see
// flush); the others belong to the job's pickups and its chain.
type phase uint8

const (
	phaseSteps   phase = iota // play the recorded steps, then return 0
	phasePick                 // pick up the next iteration
	phaseLock                 // XDOALL: take the iteration lock, then the serialized window
	phaseTAS                  // XDOALL: claim, release, the test-and-set round trip
	phaseClaimed              // XDOALL: the pickup's round trip is done
	phaseIter                 // run the body of the iteration picked up
	phaseBody                 // play the body's steps, then end the iteration
	phaseAcross               // CDOACROSS: take the doacross lock, then the serialized region
	phaseRegion               // CDOACROSS: the region is done; release the lock
	phasePoll                 // OS work is pending: Poll on the process
	phaseSync                 // no iteration left: synchronize the cluster
	phaseDone                 // the end-of-job sync is done
)

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

// CE returns the CE the context runs on, after playing any recorded
// steps: a caller that uses the CE directly (its process, a lock, a
// Spend) needs the clock where the body's earlier calls left it. Only
// code on the CE's process may use it so: a serial section.
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

// touch takes the page faults of the Global the chain handed back (see
// advance) on the CE's process. The chain then starts the access in
// the same event, as if the pages had been mapped all along.
func (ec *ExecCtx) touch() {
	s := &ec.steps[ec.pos]
	s.region.Touch(ec.ce, s.n, int64(s.words))
	ec.touched = true
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

// flush plays the recorded steps as a callback chain, on the process.
// A Global the chain hands back takes its faults on the process, and
// the chain resumes with it. A body that a job's chain runs has no
// process to play on, so a flush with steps recorded there is a
// misuse: the body called Rand, Now or CE after its first step.
func (ec *ExecCtx) flush() {
	if len(ec.steps) == 0 {
		return
	}
	if ec.phase != phaseSteps {
		panic("cfrt: a loop body called Rand, Now or CE after its first Compute, Global or ClusterMem")
	}
	for {
		ec.play()
		if ec.pos == len(ec.steps) {
			break
		}
		ec.touch()
	}
	ec.steps = ec.steps[:0]
	ec.pos = 0
}

// holdSteps makes every chain in this package (a job's, a loop body's
// or a serial section's) hold for each of its steps on the CE's
// process instead of playing them as a sim.Proc.Chain. Both run the
// same events in the same order; only the number of process switches
// differs, so a run under holdSteps is the whole-run reference that
// FuzzChainedJobs compares chains with. New copies it into the
// runtime, so a simulation still running in another goroutine never
// reads it. It is a test seam, set from export_test.go, and never set
// in a normal run.
var holdSteps bool

// play runs advance from the CE's phase until it returns 0: as one
// callback chain, or as one Hold per step under holdSteps.
func (ec *ExecCtx) play() {
	p := ec.ce.Proc
	if !ec.rt.holdSteps {
		p.Chain(ec.next)
		return
	}
	for d := ec.next(); d > 0; d = ec.next() {
		p.Hold(d)
	}
}

// advance is the chain's step function (see sim.Proc.Chain): it
// finishes the step in progress, if any, then moves the CE on from its
// phase until a step takes time, and returns that step's duration. In
// phaseSteps it plays the recorded steps and returns 0 after the last.
// In a job's chain (see execJob) it goes round pickup, body, the
// CDOACROSS region and iteration end until the end-of-job sync is done
// (phaseDone), and returns 0 early where the CE needs its process: a
// Global whose span has a page unmapped would fault, and a fault
// blocks (phaseBody, pos at the step, whose faults touch takes);
// another CE holds the XDOALL iteration lock (phaseLock) or the
// doacross lock (phaseAcross); OS work is pending at an iteration end
// (phasePoll); or the loop ends in a barrier through global memory
// (phaseSync).
func (ec *ExecCtx) advance() sim.Duration {
	if ec.inStep {
		ec.inStep = false
		ec.ce.FinishStep()
	}
	for {
		var d sim.Duration
		switch ec.phase {
		case phaseSteps, phaseBody:
			if ec.pos == len(ec.steps) {
				switch {
				case ec.phase == phaseSteps:
					return 0
				case ec.job.across != nil:
					ec.phase = phaseAcross
				default:
					ec.endIter()
				}
				continue
			}
			s := &ec.steps[ec.pos]
			if s.kind == stepGlobal && !ec.touched && !s.region.Mapped(ec.ce, s.n, int64(s.words)) {
				return 0
			}
			ec.touched = false
			ec.pos++
			d = ec.start(s)
		case phaseIter:
			ec.beginIter()
		case phaseAcross:
			// The iteration's serialized region, under the doacross
			// lock.
			if !ec.take(ec.job.across) {
				return 0
			}
			ec.phase = phaseRegion
			d = ec.ce.StartSpend(ec.job.serial, ec.job.cat)
		case phaseRegion:
			ec.release()
			ec.endIter()
		case phaseSync:
			if ec.job.barrier {
				return 0
			}
			ec.phase = phaseDone
			d = ec.ce.StartConcBusOp(ec.rt.Cost.ConcBusSync, ec.job.cat)
		case phaseDone, phasePoll:
			return 0
		default:
			if d = ec.pick(); d == 0 && ec.phase == phaseLock {
				return 0
			}
		}
		if d > 0 {
			ec.inStep = true
			return d
		}
	}
}

// beginIter starts the iteration picked up: it posts its start and
// runs the body, if any, which records the steps the chain then plays.
func (ec *ExecCtx) beginIter() {
	ec.rt.M.Mon.Post(hpm.EvIterStart, ec.ce.Global(), int64(ec.iter))
	ec.phase = phaseBody
	if ec.job.body != nil {
		ec.job.body(ec, ec.iter)
	}
}

// endIter ends the iteration whose steps have all played: it posts its
// end and goes on to the next pickup, through a Poll on the process
// when OS work is pending.
func (ec *ExecCtx) endIter() {
	ec.rt.M.Mon.Post(hpm.EvIterEnd, ec.ce.Global(), int64(ec.iter))
	ec.steps = ec.steps[:0]
	ec.pos = 0
	ec.phase = phasePick
	if ec.rt.OS.Pending(ec.ce) {
		ec.phase = phasePoll
	}
}

// pick moves the CE's pickup of its next iteration on from ec.phase.
// It returns the duration of a step it started, and is called again
// once the step is finished. It returns 0 when the pickup is over
// (phaseIter: ec.iter is picked up; phaseSync: none is left) or needs
// the process (phaseLock: another CE holds the XDOALL iteration lock;
// acquire takes it). A job whose loop is not an XDOALL takes
// iterations over the concurrency bus, one short transaction each:
// the FX/8's hardware self-scheduling, which balances uneven
// iteration times and absorbs per-CE stalls (page faults, memory
// queueing) without any network traffic, and whose per-iteration cost
// of a couple of bus cycles is why the paper does not characterize
// cluster-level CDOALL distribution as an overhead. An XDOALL pickup is
// an individual test-and-set on the global iteration lock, the source
// of the construct's contention. With Runtime.XdoallChunk > 1 each
// pickup claims a chunk of iterations, amortizing the lock traffic —
// the classic mitigation for the distribution overhead Section 6
// measures (at the cost of tail imbalance).
func (ec *ExecCtx) pick() sim.Duration {
	ce, rt, job := ec.ce, ec.rt, ec.job
	for {
		switch ec.phase {
		case phasePick:
			switch {
			case job.al == nil:
				if job.next >= job.count {
					ec.phase = phaseSync
					return 0
				}
				ec.iter = job.start + job.next
				job.next++
				ec.phase = phaseIter
				// The bus grant: a tiny serialized window per dispatch.
				if d := ce.StartConcBusOp(2, metrics.CatLoopIter); d > 0 {
					return d
				}
			case ec.claim < ec.claimEnd:
				// Serve from the chunk already claimed: local
				// bookkeeping only, no global traffic.
				ec.iter = ec.claim
				ec.claim++
				ec.phase = phaseIter
				if d := ce.StartSpend(sim.Duration(rt.Cost.IterDispatchLocal), metrics.CatPickIter); d > 0 {
					return d
				}
			default:
				rt.M.Mon.Post(hpm.EvPickStart, ce.Global(), int64(job.al.gen))
				ec.phase = phaseLock
			}
		case phaseLock:
			// The critical section around the loop index is held only
			// for the local bookkeeping: the competing test-and-set
			// requests themselves pipeline through the network and
			// serialize at the index word's memory module, which is
			// where the construct's contention lives.
			if !ec.take(rt.xdoallLock) {
				return 0
			}
			// The serialized window: the test-and-set is owned from the
			// module's grant until the index update commits.
			ec.phase = phaseTAS
			if d := ce.StartSpend(sim.Duration(rt.Cost.IterDispatchLocal+rt.Cost.XdoallPickSerial),
				metrics.CatPickIter); d > 0 {
				return d
			}
		case phaseTAS:
			ec.iter = job.al.flatNext
			job.al.flatNext += rt.chunk()
			ec.release()
			// The winning test-and-set round trip, real global memory
			// traffic on the lock word's module.
			ec.phase = phaseClaimed
			if d, _ := ce.StartGMAccess(rt.xdoallAddr, 1, metrics.CatPickIter); d > 0 {
				return d
			}
		case phaseClaimed:
			rt.stats.XdoallPicks++
			rt.M.Mon.Post(hpm.EvPickEnd, ce.Global(), int64(job.al.gen))
			total := job.al.loop.Total()
			if ec.iter >= total {
				ec.phase = phaseSync
				return 0
			}
			ec.claim, ec.claimEnd = ec.iter+1, min(ec.iter+rt.chunk(), total)
			ec.phase = phaseIter
		default:
			return 0
		}
	}
}

// take reports whether the CE holds lock, taking it first in the link
// if it is free (see sim.Resource.TryAcquire). On false the chain
// hands back to the process, which queues for it (see acquire).
func (ec *ExecCtx) take(lock *sim.Resource) bool {
	if ec.held == nil && lock.TryAcquire() {
		ec.held = lock
	}
	return ec.held != nil
}

// acquire takes lock on the CE's process, queuing behind the CE that
// holds it, and charges the wait to cat, for a chain that stopped at
// phaseLock or phaseAcross; the chain then goes on in the same phase.
func (ec *ExecCtx) acquire(lock *sim.Resource, cat metrics.Category) {
	waited := lock.Acquire(ec.ce.Proc)
	ec.ce.Charge(waited, cat)
	ec.held = lock
}

// release releases the lock the CE holds.
func (ec *ExecCtx) release() {
	lock := ec.held
	ec.held = nil
	lock.Release()
}
