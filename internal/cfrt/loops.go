package cfrt

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hpm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Main is the interface the application's main task programs against.
// All methods must be called from the main task (the program function
// passed to Runtime.Run).
type Main struct {
	rt   *Runtime
	lead *cluster.CE
}

// Runtime returns the runtime the main task runs on.
func (mt *Main) Runtime() *Runtime { return mt.rt }

// Serial executes a serial code section on the main task's lead CE,
// through the lead's body context like a loop body.
func (mt *Main) Serial(f func(ec *ExecCtx)) {
	rt, lead := mt.rt, mt.lead
	rt.stats.SerialSecs++
	rt.M.Mon.Post(hpm.EvSerialStart, lead.Global(), 0)
	ec := rt.bodyCtx(lead, metrics.CatSerial)
	f(ec)
	ec.flush()
	rt.OS.Poll(lead)
	rt.M.Mon.Post(hpm.EvSerialEnd, lead.Global(), 0)
}

// Sdoall executes a hierarchical SDOALL/CDOALL nest across all
// clusters. On an unclustered configuration it degrades to the flat
// construct (there is no hierarchy to exploit).
func (mt *Main) Sdoall(l *Loop) {
	if mt.rt.M.Cfg.Unclustered {
		mt.Xdoall(l)
		return
	}
	mt.rt.crossClusterLoop(l, Sdoall)
}

// Xdoall executes a flat XDOALL across all CEs of all clusters.
func (mt *Main) Xdoall(l *Loop) {
	mt.rt.crossClusterLoop(l, Xdoall)
}

// MCLoop executes a main-cluster-only CDOALL (or CDOACROSS, if the
// loop has SerialCycles) on the master cluster's CEs.
func (mt *Main) MCLoop(l *Loop) {
	rt := mt.rt
	rc := rt.rcs[0]
	lead := rc.cl.Lead()
	rt.stats.MCLoops++
	rt.M.Mon.Post(hpm.EvMCLoopStart, lead.Global(), 0)
	lead.Spend(sim.Duration(rt.Cost.LoopSetup), metrics.CatMCLoop)

	t0 := lead.Now()
	job := &clusterJob{cat: metrics.CatMCLoop, body: l.Body, count: l.Total()}
	if l.SerialCycles > 0 {
		job.across = sim.NewLock(rt.M.Kernel, "cfrt.doacross."+l.Name)
		job.serial = sim.Duration(l.SerialCycles)
	}
	rt.runJob(rc, job)
	rc.MCWall += lead.Now() - t0
	rt.OS.Poll(lead)
	rt.M.Mon.Post(hpm.EvMCLoopEnd, lead.Global(), 0)
}

// crossClusterLoop posts the loop, participates, and waits at the
// finish barrier — the main task side of both cross-cluster
// constructs.
func (rt *Runtime) crossClusterLoop(l *Loop, c Construct) {
	rc := rt.rcs[0]
	lead := rc.cl.Lead()

	// Set up loop parameters and post the loop in global memory.
	lead.Spend(sim.Duration(rt.Cost.LoopSetup), metrics.CatLoopSetup)
	rt.boardGen++
	al := &activeLoop{gen: rt.boardGen, loop: l, construct: c}
	rt.cur = al
	// Name the loop for trace folding, so its spans read
	// "fine-sweep [sdoall/cdoall]" instead of a bare generation number.
	if rt.loopNames != nil {
		rt.loopNames[int64(al.gen)] = fmt.Sprintf("%s [%s]", l.Name, c)
	}
	switch c {
	case Sdoall:
		rt.stats.SdoallLoops++
	case Xdoall:
		rt.stats.XdoallLoops++
	}
	rt.M.Mon.Post(hpm.EvLoopPost, lead.Global(), int64(al.gen))
	lead.GMAccessAs(rt.boardAddr, 1, metrics.CatLoopSetup)
	rt.boardCond.Broadcast() // helpers see the activity lock

	// The main task joins in the execution of the loop.
	t0 := lead.Now()
	switch c {
	case Sdoall:
		rt.runSdoallTask(rc, al)
	case Xdoall:
		rt.runXdoallTask(rc, al)
	}
	rc.SXWall += lead.Now() - t0

	// Spin-wait at the finish barrier for every helper that entered
	// the loop to detach.
	rt.stats.Barriers++
	rt.M.Mon.Post(hpm.EvBarrierEnter, lead.Global(), int64(al.gen))
	for al.detached < al.joined {
		waited := rt.barrierCond.Wait(lead.Proc)
		lead.Charge(waited, metrics.CatBarrierWait)
	}
	// The final barrier-count read that observes completion.
	lead.GMAccessAs(rt.barrierAddr, 1, metrics.CatBarrierWait)
	rt.M.Mon.Post(hpm.EvBarrierExit, lead.Global(), int64(al.gen))
	rt.cur = nil
	rt.OS.Poll(lead)
}

// runSdoallTask is one cluster task's share of an SDOALL: self-
// schedule outer iterations one at a time through the global memory
// lock; spread each one's inner CDOALL across the cluster via the
// concurrency bus.
func (rt *Runtime) runSdoallTask(rc *rtCluster, al *activeLoop) {
	lead := rc.cl.Lead()
	l := al.loop
	inner := max(l.Inner, 1)
	for {
		// Pick up the next outer iteration (or determine none are
		// left): one request per cluster — little contention.
		rt.M.Mon.Post(hpm.EvPickStart, lead.Global(), int64(al.gen))
		waited := rt.sdoallLock.Acquire(lead.Proc)
		lead.Charge(waited, metrics.CatPickIter)
		var o int
		func() {
			defer rt.sdoallLock.Release()
			lead.Spend(sim.Duration(rt.Cost.IterDispatchLocal), metrics.CatPickIter)
			lead.GMAccessAs(rt.sdoallAddr, 1, metrics.CatPickIter)
			o = al.outerNext
			al.outerNext++
		}()
		rt.stats.OuterPicks++
		rt.M.Mon.Post(hpm.EvPickEnd, lead.Global(), int64(al.gen))
		if o >= max(l.Outer, 1) {
			return
		}

		// Inner CDOALL across this cluster's CEs.
		rt.runJob(rc, &clusterJob{cat: metrics.CatLoopIter, body: l.Body, start: o * inner, count: inner})
		rt.OS.Poll(lead)
	}
}

// runXdoallTask is one cluster task's share of an XDOALL: activate all
// CEs of the cluster; every CE competes for flat iterations through
// the global iteration lock.
func (rt *Runtime) runXdoallTask(rc *rtCluster, al *activeLoop) {
	rt.runJob(rc, &clusterJob{cat: metrics.CatLoopIter, body: al.loop.Body, al: al})
}

// chunk is how many XDOALL iterations one pickup claims.
func (rt *Runtime) chunk() int { return max(rt.XdoallChunk, 1) }

// clusterJob is the unit of work a cluster lead dispatches to its CEs
// over the concurrency bus.
type clusterJob struct {
	gen  uint64
	cat  metrics.Category
	body func(ec *ExecCtx, i int)
	// across, for a CDOACROSS, is the doacross lock each iteration's
	// serialized region of serial cycles runs under, after the body.
	across *sim.Resource
	serial sim.Duration
	// barrier reports that the job ends in a barrier through global
	// memory (an XDOALL on an unclustered machine) rather than a
	// concurrency-bus sync.
	barrier bool

	// The iterations: [start, start+count) handed out over the
	// concurrency bus, next being the next to go; or, when al is set,
	// the XDOALL's flat iterations through its global iteration lock.
	start, count, next int
	al                 *activeLoop // the cross-cluster XDOALL, if any

	finished []bool // per local CE index; fail-stopped CEs count as done
	done     *sim.Cond
}

// jobComplete reports whether every CE of the cluster has either
// finished its share of the job or fail-stopped. Counting dead CEs as
// done is what lets a cluster's internal synchronization complete on a
// degraded machine.
func jobComplete(cl *cluster.Cluster, job *clusterJob) bool {
	for li, ce := range cl.CEs {
		if !job.finished[li] && !ce.Failed() {
			return false
		}
	}
	return true
}

// runJob dispatches job on the cluster (lead participates) and waits
// for the cluster-internal synchronization to complete.
func (rt *Runtime) runJob(rc *rtCluster, job *clusterJob) {
	lead := rc.cl.Lead()
	rc.jobGen++
	job.gen = rc.jobGen
	job.barrier = rt.M.Cfg.Unclustered && job.al != nil
	job.finished = make([]bool, len(rc.cl.CEs))
	job.done = rc.jobDone
	rc.job = job

	// Spread the loop via the concurrency control bus.
	lead.ConcBusOp(rt.Cost.ConcBusDispatch, metrics.CatLoopSetup)
	rc.workCond.Broadcast()

	rt.execJob(lead, job)

	// Wait for the cluster's CEs to synchronize; the lead's wait for
	// its slower siblings is loop execution wall time.
	for !jobComplete(rc.cl, job) {
		waited := job.done.Wait(lead.Proc)
		lead.Charge(waited, job.cat)
	}
}

// execJob is every CE's participation in a cluster job: pull
// iterations until none remain, then synchronize on the concurrency
// bus (or through global memory on an unclustered machine). The whole
// share runs as one callback chain (see ExecCtx.advance): pickup, the
// body's steps, a CDOACROSS iteration's serialized region, the
// iteration's end, the next pickup, and at last the concurrency-bus
// sync. The process is resumed only where it must block or is needed:
// a Global faults, the XDOALL iteration lock or the doacross lock is
// held, OS work is pending at an iteration end, the loop ends in a
// barrier, or the job is done.
func (rt *Runtime) execJob(ce *cluster.CE, job *clusterJob) {
	ec := rt.bodyCtx(ce, job.cat)
	ec.job, ec.phase, ec.claim, ec.claimEnd = job, phasePick, 0, 0
	// The deferred wind-up holds on a fail-stop too, which unwinds out
	// of whatever the CE was parked in, the chain included: a CE parked
	// in its pickup window or serialized region passes on the lock it
	// holds, and its share counts as finished (a dead CE counts as
	// done), so the cluster's lead is never left waiting on a processor
	// that will not report in.
	defer func() {
		if ec.held != nil {
			ec.release()
		}
		ec.job, ec.phase = nil, phaseSteps
		ec.steps, ec.pos, ec.inStep, ec.touched = ec.steps[:0], 0, false, false
		job.finished[ce.ID.Local] = true
		if jobComplete(ce.Cluster, job) {
			job.done.Broadcast()
		}
	}()
	for {
		ec.play()
		switch ec.phase {
		case phaseBody: // a Global that may fault
			ec.touch()
		case phaseLock:
			ec.acquire(rt.xdoallLock, metrics.CatPickIter)
		case phaseAcross:
			ec.acquire(job.across, job.cat)
		case phasePoll:
			rt.OS.Poll(ce)
			ec.phase = phasePick
		case phaseSync:
			rt.barrier(ce, job.al)
			return
		default: // phaseDone
			return
		}
	}
}

// barrier synchronizes the CE at the end of an unclustered XDOALL:
// through a combining tree when TreeFanout > 1, else the flat count.
func (rt *Runtime) barrier(ce *cluster.CE, al *activeLoop) {
	if rt.TreeFanout > 1 {
		rt.treeBarrier(ce, al)
	} else {
		rt.flatBarrier(ce, al)
	}
}

// bodyCtx returns the CE's body context, which records a loop body's
// or serial section's steps for a callback chain (see ExecCtx), set to
// charge cat. Each CE reuses one context, so playing a chain allocates
// nothing.
func (rt *Runtime) bodyCtx(ce *cluster.CE, cat metrics.Category) *ExecCtx {
	ec := &rt.bodies[ce.Global()]
	if ec.next == nil {
		*ec = ExecCtx{ce: ce, rt: rt}
		ec.next = ec.advance
	}
	ec.cat = cat
	return ec
}

// ensureArrived lazily allocates the loop's per-CE arrival map.
func (rt *Runtime) ensureArrived(al *activeLoop) {
	if al.arrived == nil {
		al.arrived = make([]bool, rt.M.Cfg.CEs())
	}
}

// absent reports whether ce will never reach al's loop-end barrier: it
// fail-stopped, or its cluster's lead fail-stopped before dispatching
// the cluster's share of the loop, which no other CE dispatches.
func (rt *Runtime) absent(ce *cluster.CE, al *activeLoop) bool {
	if ce.Failed() {
		return true
	}
	rc := rt.rcs[ce.ID.Cluster]
	return rc.cl.Lead().Failed() && (rc.job == nil || rc.job.al != al)
}

// flatBarrierDone reports whether every CE has arrived or is absent —
// the degraded machine's barrier predicate (an absent CE is never
// coming, so survivors must not spin for it).
func (rt *Runtime) flatBarrierDone(al *activeLoop) bool {
	for _, cl := range rt.M.Clusters {
		for _, other := range cl.CEs {
			if !al.arrived[other.Global()] && !rt.absent(other, al) {
				return false
			}
		}
	}
	return true
}

// flatBarrier synchronizes all CEs of a cross-cluster loop through a
// busy-waited count in global memory — the "32 independent tasks"
// alternative of Section 6, which turns every loop end into a hot spot
// on the barrier word's memory module.
func (rt *Runtime) flatBarrier(ce *cluster.CE, al *activeLoop) {
	rt.stats.FlatBarriers++
	rt.ensureArrived(al)
	al.arrived[ce.Global()] = true
	// The arrival increment (test-and-set on the barrier word).
	ce.GMAccessAs(rt.barrierAddr, 1, metrics.CatBarrierWait)
	// Poll the count until every live CE in the machine has arrived.
	// Every poll is real global memory traffic on one module.
	for !rt.flatBarrierDone(al) {
		ce.Spend(sim.Duration(rt.Cost.SpinPollInterval), metrics.CatBarrierWait)
		ce.GMAccessAs(rt.barrierAddr, 1, metrics.CatBarrierWait)
	}
}
