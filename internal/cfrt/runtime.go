// Package cfrt models the Cedar Fortran runtime library: the
// hierarchical SDOALL/CDOALL construct, the flat XDOALL construct,
// CDOACROSS serialization, main-cluster-only loops, and the helper
// tasks that carry inter-cluster loop-level parallelism (Section 2 of
// the paper).
//
// The protocols are executed, not approximated:
//
//   - The runtime creates a helper task on every cluster other than
//     the master cluster. Helper leads busy-wait for work, checking
//     the sdoall activity lock in global memory.
//   - When the main task encounters an S(X)DOALL it posts it in shared
//     global memory; helper tasks that see the posting join the loop.
//   - SDOALL outer iterations are self-scheduled one at a time to each
//     cluster task through a lock in global memory (one request per
//     cluster — little contention). The inner CDOALL is spread across
//     the cluster's CEs by the concurrency-control bus (no network
//     traffic).
//   - XDOALL activates every CE on every participating cluster; each
//     CE individually issues test-and-set requests to the global
//     iteration lock, which is where the construct's global memory and
//     network contention comes from.
//   - After every cross-cluster loop, the main task spin-waits at a
//     barrier until all helpers that entered the loop detach.
//
// Every cycle spent in these protocols is charged to the
// metrics.Category the paper's Figure 4 breakdown uses, so the
// Section 6 parallelization overheads fall out of the accounts.
//
// Each CE's share of a cluster job runs as one kernel callback chain
// (sim.Proc.Chain, see ExecCtx and execJob): pick up an iteration,
// play the body's recorded steps, run a CDOACROSS iteration's
// serialized region under the doacross lock, post the iteration's
// end, pick up the next, and at last synchronize on the concurrency
// bus, all in the events and order the same protocol would take on
// the CE's process. The process is resumed only where it must block or
// is needed: a page fault, an XDOALL iteration lock or doacross lock
// another CE holds, OS work pending at an iteration end, an
// unclustered loop's barrier, and the job's end. Helper and main tasks
// and barriers run on the process; a serial section's steps play as a
// chain from it.
package cfrt

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/hpm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// Construct identifies a parallel loop construct.
type Construct int

const (
	// Sdoall is the hierarchical SDOALL/CDOALL nest: outer iterations
	// spread across cluster tasks, inner iterations across each
	// cluster's CEs.
	Sdoall Construct = iota
	// Xdoall is the flat construct: all CEs of all clusters compete
	// for iterations through a global memory lock.
	Xdoall
	// MCLoop is a main-cluster-only CDOALL (no outer spread loop).
	MCLoop
	// MCAcross is a main-cluster-only CDOACROSS: a CDOALL with a
	// serialized region per iteration.
	MCAcross
)

// String implements fmt.Stringer.
func (c Construct) String() string {
	switch c {
	case Sdoall:
		return "sdoall/cdoall"
	case Xdoall:
		return "xdoall"
	case MCLoop:
		return "cdoall(mc)"
	case MCAcross:
		return "cdoacross(mc)"
	}
	return fmt.Sprintf("Construct(%d)", int(c))
}

// Loop describes one parallel loop. The body receives a flat
// iteration index in [0, Outer*Inner); for the hierarchical construct
// the outer index is i/Inner and the inner index i%Inner.
type Loop struct {
	// Name labels the loop in traces.
	Name string
	// Outer is the spread (SDOALL) iteration count. XDOALL and
	// main-cluster loops treat Outer*Inner as a flat count.
	Outer int
	// Inner is the cluster (CDOALL) iteration count per outer
	// iteration.
	Inner int
	// Body executes one iteration, charging its time through the
	// ExecCtx; a CDOACROSS iteration's serialized region follows it in
	// the same chain. It may be nil. It runs inside the CE's chain,
	// often in a kernel callback rather than on the CE's process (see
	// ExecCtx), so it may call Rand, Now and CE only before its first
	// Compute, Global or ClusterMem.
	Body func(ec *ExecCtx, i int)
	// SerialCycles, for CDOACROSS loops, is the serialized work per
	// iteration (executed under the serialization lock).
	SerialCycles int64
}

// Total returns the flat iteration count.
func (l *Loop) Total() int { return max(l.Outer, 1) * max(l.Inner, 1) }

// Runtime is the Cedar Fortran runtime bound to one machine and OS.
type Runtime struct {
	M    *cluster.Machine
	OS   *xylem.OS
	Cost arch.CostModel

	// Global-memory control words (addresses).
	boardAddr   int64 // sdoall activity lock / loop descriptor
	sdoallAddr  int64 // sdoall outer iteration index
	xdoallAddr  int64 // xdoall iteration index lock word
	barrierAddr int64 // finish-barrier detach count

	sdoallLock *sim.Resource
	xdoallLock *sim.Resource
	treeWords  []int64 // combining-tree node words in global memory

	boardCond   *sim.Cond // helper leads wait for posted work
	barrierCond *sim.Cond // main lead waits for detaches
	boardGen    uint64
	cur         *activeLoop
	shutdown    bool

	rcs       []*rtCluster
	bodies    []ExecCtx // per global CE id, see bodyCtx
	mainDone  sim.Time
	started   bool
	holdSteps bool // see the package variable holdSteps

	// loopNames maps each posted loop's generation to its source name;
	// nil unless the machine's monitor was armed at New (see LoopName).
	loopNames map[int64]string

	// OnFinish, if set, runs (in the main task's context) the moment
	// the program completes — before helper shutdown. Monitors hook it
	// to stop sampling exactly at the completion time.
	OnFinish func()

	// TreeFanout, when > 1 on an unclustered configuration, replaces
	// the flat busy-wait barrier with a software combining tree of the
	// given fanout (the paper's reference [16]).
	TreeFanout int

	// XdoallChunk, when > 1, makes each XDOALL pickup claim a chunk of
	// iterations instead of one, amortizing the global iteration-lock
	// traffic — the standard mitigation for the distribution overhead
	// the paper measures for the flat construct.
	XdoallChunk int

	stats Stats
}

// Stats counts runtime events for reports and tests.
type Stats struct {
	SdoallLoops  uint64
	XdoallLoops  uint64
	MCLoops      uint64
	SerialSecs   uint64
	OuterPicks   uint64
	XdoallPicks  uint64
	HelperJoins  uint64
	Barriers     uint64
	FlatBarriers uint64
	TreeBarriers uint64
}

// rtCluster is per-cluster runtime state.
type rtCluster struct {
	cl       *cluster.Cluster
	workCond *sim.Cond
	jobDone  *sim.Cond // every job's done (see clusterJob)
	job      *clusterJob
	jobGen   uint64

	// Wall-clock time this cluster task spent inside cross-cluster
	// s(x)doall loops and (main cluster only) main-cluster-only loops.
	// These feed the paper's pf fraction (Table 3) and T_p (Table 4).
	SXWall sim.Duration
	MCWall sim.Duration
}

// activeLoop is a loop posted on the work board.
type activeLoop struct {
	gen       uint64
	loop      *Loop
	construct Construct
	outerNext int // next SDOALL outer iteration
	flatNext  int // next XDOALL flat iteration
	joined    int // helper tasks that entered the loop
	detached  int // helper tasks that have detached
	// arrived marks, per machine-wide CE id, arrival at the
	// unclustered-mode loop-end barrier. The barrier is complete when
	// every CE has arrived or fail-stopped.
	arrived []bool
	tree    *combTree
}

// New creates a runtime for the machine and OS. Arm the machine's
// monitor (Machine.Mon) first: New decides whether to keep loop names.
func New(m *cluster.Machine, o *xylem.OS) *Runtime {
	k := m.Kernel
	rt := &Runtime{
		M:           m,
		OS:          o,
		Cost:        m.Cost,
		sdoallLock:  sim.NewLock(k, "cfrt.sdoall"),
		xdoallLock:  sim.NewLock(k, "cfrt.xdoall"),
		boardCond:   sim.NewCond(k, "cfrt.board"),
		barrierCond: sim.NewCond(k, "cfrt.barrier"),
		bodies:      make([]ExecCtx, m.Cfg.CEs()),
		holdSteps:   holdSteps,
	}
	// Control words live in global memory; keep them on distinct
	// modules-ish addresses (they are word-interleaved anyway).
	rt.boardAddr = m.AllocGM(1)
	rt.sdoallAddr = m.AllocGM(1)
	rt.xdoallAddr = m.AllocGM(1)
	rt.barrierAddr = m.AllocGM(1)
	if m.Mon != nil {
		rt.loopNames = map[int64]string{}
	}
	for _, cl := range m.Clusters {
		rt.rcs = append(rt.rcs, &rtCluster{
			cl:       cl,
			workCond: sim.NewCond(k, fmt.Sprintf("cfrt.work.c%d", cl.ID)),
			jobDone:  sim.NewCond(k, fmt.Sprintf("cfrt.job.c%d", cl.ID)),
		})
	}
	return rt
}

// LoopName returns the source name of the loop posted with generation
// gen ("fine-sweep [sdoall/cdoall]"), or "loop#<gen>" when the loop
// was not named — names are kept only while the monitor is armed.
func (rt *Runtime) LoopName(gen int64) string {
	if n, ok := rt.loopNames[gen]; ok {
		return n
	}
	return fmt.Sprintf("loop#%d", gen)
}

// Stats returns the runtime's event counters.
func (rt *Runtime) Statistics() Stats { return rt.stats }

// CT returns the application completion time (valid after Run).
func (rt *Runtime) CT() sim.Time { return rt.mainDone }

// ClusterSXWall returns the wall time cluster c spent in cross-cluster
// parallel loops.
func (rt *Runtime) ClusterSXWall(c int) sim.Duration { return rt.rcs[c].SXWall }

// ClusterMCWall returns the wall time cluster c spent in
// main-cluster-only loops (nonzero only for cluster 0).
func (rt *Runtime) ClusterMCWall(c int) sim.Duration { return rt.rcs[c].MCWall }

// Run executes the program on the machine: it spawns a driver process
// per CE, creates the helper tasks, runs program on the main task, and
// drains the simulation. It returns the completion time, panicking on
// simulation errors (see RunErr for the error-returning form).
func (rt *Runtime) Run(program func(mt *Main)) sim.Time {
	ct, err := rt.RunErr(program)
	if err != nil {
		panic(err)
	}
	return ct
}

// RunErr is Run with error reporting: a process panic surfaces as an
// error, a wedged simulation (fault plans can produce one) is
// diagnosed as sim.ErrDeadlock, and an exhausted cycle budget as
// sim.ErrCycleBudget — instead of panicking or hanging. Accounting is
// flushed either way, so the partial run remains inspectable.
func (rt *Runtime) RunErr(program func(mt *Main)) (sim.Time, error) {
	if rt.started {
		return 0, fmt.Errorf("cfrt: Runtime.Run called twice")
	}
	rt.started = true
	k := rt.M.Kernel
	rt.OS.Start()

	for ci, rc := range rt.rcs {
		rc := rc
		for li, ce := range rc.cl.CEs {
			ce := ce
			switch {
			case ci == 0 && li == 0:
				k.Spawn("main."+ce.ID.String(), func(p *sim.Proc) {
					ce.Proc = p
					if ce.Failed() {
						return // fail-stopped before startup
					}
					rt.mainDriver(program)
				})
			case li == 0:
				k.Spawn("helper."+ce.ID.String(), func(p *sim.Proc) {
					ce.Proc = p
					if ce.Failed() {
						return
					}
					rt.helperDriver(rc)
				})
			default:
				k.Spawn("worker."+ce.ID.String(), func(p *sim.Proc) {
					ce.Proc = p
					if ce.Failed() {
						return
					}
					rt.workerDriver(rc, ce)
				})
			}
		}
	}

	_, err := k.RunAllErr()
	rt.OS.Stop() // idempotent; on error paths the main task never got here
	rt.OS.FlushAccounting()
	if k.LiveProcs() > 0 {
		k.Shutdown()
	}
	return rt.mainDone, err
}

// NotifyCEFailure wakes every protocol wait that may have been
// counting on the failed CE — job quorums, the finish barrier, the
// work boards — so survivors re-evaluate their predicates instead of
// waiting on a dead processor. Fault injectors call it right after
// fail-stopping a CE.
func (rt *Runtime) NotifyCEFailure(ce *cluster.CE) {
	rc := rt.rcs[ce.ID.Cluster]
	if rc.job != nil {
		rc.job.done.Broadcast()
	}
	rc.workCond.Broadcast()
	rt.boardCond.Broadcast()
	rt.barrierCond.Broadcast()
	if al := rt.cur; al != nil && al.tree != nil {
		rt.ghostArrivals(al)
	}
}

// mainDriver runs on the master cluster's lead CE.
func (rt *Runtime) mainDriver(program func(mt *Main)) {
	lead := rt.rcs[0].cl.Lead()
	// Task creation: one global system call per helper task ("the
	// runtime library creates a helper task on each cluster other than
	// the master cluster with the help of the OS"), plus the cluster
	// call that starts the main task.
	rt.OS.ClusterSyscall(lead)
	for range rt.rcs[1:] {
		rt.OS.GlobalSyscall(lead)
	}

	program(&Main{rt: rt, lead: lead})

	rt.mainDone = lead.Now()
	rt.shutdown = true
	if rt.OnFinish != nil {
		rt.OnFinish()
	}
	rt.OS.Stop()
	rt.boardCond.Broadcast()
	for _, rc := range rt.rcs {
		rc.workCond.Broadcast()
	}
}

// helperDriver runs on each helper cluster's lead CE: the helper
// task's wait-for-work loop.
func (rt *Runtime) helperDriver(rc *rtCluster) {
	lead := rc.cl.Lead()
	// If this helper fail-stops after joining a loop but before
	// detaching, detach on its behalf during the unwind so the main
	// task's finish barrier does not wait for a dead cluster.
	var inLoop *activeLoop
	defer func() {
		if inLoop != nil {
			inLoop.detached++
			rt.barrierCond.Broadcast()
		}
	}()
	// Task startup on this cluster.
	rt.OS.ClusterSyscall(lead)

	var lastGen uint64
	for !rt.shutdown {
		al := rt.cur
		if al != nil && al.gen > lastGen && al.construct != MCLoop && al.construct != MCAcross {
			lastGen = al.gen
			// Join before any time passes so the main task's barrier
			// is guaranteed to wait for us.
			al.joined++
			inLoop = al
			rt.stats.HelperJoins++
			rt.M.Mon.Post(hpm.EvHelperJoin, lead.Global(), int64(al.gen))
			// The successful poll of the activity lock and the read of
			// the loop descriptor.
			lead.GMAccessAs(rt.boardAddr, 2, metrics.CatLoopSetup)
			lead.Spend(sim.Duration(rt.Cost.LoopSetup), metrics.CatLoopSetup)

			t0 := lead.Now()
			switch al.construct {
			case Sdoall:
				rt.runSdoallTask(rc, al)
			case Xdoall:
				rt.runXdoallTask(rc, al)
			}
			rc.SXWall += lead.Now() - t0

			// Detach at the finish barrier.
			lead.Spend(sim.Duration(rt.Cost.BarrierDetach), metrics.CatPickIter)
			lead.GMAccessAs(rt.barrierAddr, 1, metrics.CatPickIter)
			rt.M.Mon.Post(hpm.EvHelperDetach, lead.Global(), int64(al.gen))
			al.detached++
			inLoop = nil
			rt.barrierCond.Signal()
			rt.OS.Poll(lead)
			continue
		}

		rt.M.Mon.Post(hpm.EvWaitStart, lead.Global(), 0)
		waited := rt.boardCond.Wait(lead.Proc)
		lead.Charge(waited, metrics.CatHelperWait)
		rt.M.Mon.Post(hpm.EvWaitEnd, lead.Global(), 0)
		rt.OS.Poll(lead)
	}
}

// workerDriver runs on every non-lead CE: execute cluster jobs as the
// lead dispatches them over the concurrency bus.
func (rt *Runtime) workerDriver(rc *rtCluster, ce *cluster.CE) {
	var lastGen uint64
	for !rt.shutdown {
		job := rc.job
		if job != nil && job.gen > lastGen {
			lastGen = job.gen
			rt.execJob(ce, job)
			continue
		}
		waited := rc.workCond.Wait(ce.Proc)
		ce.Charge(waited, metrics.CatIdle)
	}
}
