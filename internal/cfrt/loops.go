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
	body := l.Body
	if l.SerialCycles > 0 {
		body = rt.serializedBody(l, metrics.CatMCLoop)
	}
	job := &clusterJob{
		cat:  metrics.CatMCLoop,
		body: body,
		next: busNext(rc.cl, 0, l.Total()),
	}
	rt.runJob(rc, job)
	rc.MCWall += lead.Now() - t0
	rt.OS.Poll(lead)
	rt.M.Mon.Post(hpm.EvMCLoopEnd, lead.Global(), 0)
}

// serializedBody wraps a CDOACROSS body: after the concurrent part of
// each iteration, the serialized region runs under the doacross lock.
func (rt *Runtime) serializedBody(l *Loop, cat metrics.Category) func(*ExecCtx, int) {
	lock := sim.NewLock(rt.M.Kernel, "cfrt.doacross."+l.Name)
	inner := l.Body
	serial := sim.Duration(l.SerialCycles)
	return func(ec *ExecCtx, i int) {
		if inner != nil {
			inner(ec, i)
		}
		// The lock needs the process: CE plays what inner recorded.
		ce := ec.CE()
		waited := lock.Acquire(ce.Proc)
		ce.Charge(waited, cat)
		func() {
			defer lock.Release()
			ce.Spend(serial, cat)
		}()
	}
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
	inner := l.Inner
	if inner < 1 {
		inner = 1
	}
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
		if o >= maxInt(l.Outer, 1) {
			return
		}

		// Inner CDOALL across this cluster's CEs.
		job := &clusterJob{
			cat:  metrics.CatLoopIter,
			body: l.Body,
			next: busNext(rc.cl, o*inner, inner),
		}
		rt.runJob(rc, job)
		rt.OS.Poll(lead)
	}
}

// runXdoallTask is one cluster task's share of an XDOALL: activate all
// CEs of the cluster; every CE competes for flat iterations through
// the global iteration lock.
func (rt *Runtime) runXdoallTask(rc *rtCluster, al *activeLoop) {
	job := &clusterJob{
		cat:  metrics.CatLoopIter,
		body: al.loop.Body,
		next: rt.xdoallNext(al),
		al:   al,
	}
	rt.runJob(rc, job)
}

// xdoallNext builds the flat self-scheduling iterator: each pickup is
// an individual test-and-set on the global iteration lock, the source
// of the construct's contention. With Runtime.XdoallChunk > 1 each
// pickup claims a chunk of iterations, amortizing the lock traffic —
// the classic mitigation for the distribution overhead Section 6
// measures (at the cost of tail imbalance).
func (rt *Runtime) xdoallNext(al *activeLoop) func(ce *cluster.CE) (int, bool) {
	total := al.loop.Total()
	chunk := rt.XdoallChunk
	if chunk < 1 {
		chunk = 1
	}
	claimed := make(map[int][2]int) // per-CE [next, end) of the held chunk
	return func(ce *cluster.CE) (int, bool) {
		g := ce.Global()
		if c := claimed[g]; c[0] < c[1] {
			// Serve from the chunk already claimed: local bookkeeping
			// only, no global traffic.
			i := c[0]
			claimed[g] = [2]int{i + 1, c[1]}
			ce.Spend(sim.Duration(rt.Cost.IterDispatchLocal), metrics.CatPickIter)
			return i, true
		}
		rt.M.Mon.Post(hpm.EvPickStart, g, int64(al.gen))
		// The critical section around the loop index is held only for
		// the local bookkeeping: the competing test-and-set requests
		// themselves pipeline through the network and serialize at the
		// index word's memory module, which is where the construct's
		// contention lives.
		waited := rt.xdoallLock.Acquire(ce.Proc)
		ce.Charge(waited, metrics.CatPickIter)
		var i int
		func() {
			// Release via defer: a fail-stop mid-window must not
			// leave the iteration lock held forever.
			defer rt.xdoallLock.Release()
			// The serialized window: the test-and-set is owned from
			// the module's grant until the index update commits.
			ce.Spend(sim.Duration(rt.Cost.IterDispatchLocal+rt.Cost.XdoallPickSerial),
				metrics.CatPickIter)
			i = al.flatNext
			al.flatNext += chunk
		}()
		// The winning test-and-set round trip, real global memory
		// traffic on the lock word's module.
		ce.GMAccessAs(rt.xdoallAddr, 1, metrics.CatPickIter)
		rt.stats.XdoallPicks++
		rt.M.Mon.Post(hpm.EvPickEnd, g, int64(al.gen))
		if i >= total {
			return 0, false
		}
		end := i + chunk
		if end > total {
			end = total
		}
		claimed[g] = [2]int{i + 1, end}
		return i, true
	}
}

// clusterJob is the unit of work a cluster lead dispatches to its CEs
// over the concurrency bus.
type clusterJob struct {
	gen  uint64
	cat  metrics.Category
	body func(ec *ExecCtx, i int)
	next func(ce *cluster.CE) (int, bool)
	al   *activeLoop // the cross-cluster loop this job belongs to, if any

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

// busNext distributes iterations [start, start+count) dynamically: an
// idle CE takes the next iteration through a short concurrency-bus
// transaction. This is the FX/8's hardware self-scheduling — it
// balances uneven iteration times and absorbs per-CE stalls (page
// faults, memory queueing) without any network traffic, and its
// per-iteration cost is a couple of bus cycles, which is why the paper
// does not characterize cluster-level CDOALL distribution as an
// overhead.
func busNext(cl *cluster.Cluster, start, count int) func(ce *cluster.CE) (int, bool) {
	next := 0
	return func(ce *cluster.CE) (int, bool) {
		if next >= count {
			return 0, false
		}
		i := next
		next++
		// The bus grant: a tiny serialized window per dispatch.
		now := ce.Now()
		_, end := cl.Machine.ConcBus.Reserve(cl.ID, now, 2)
		ce.SpendUntil(end, metrics.CatLoopIter)
		return start + i, true
	}
}

// runJob dispatches job on the cluster (lead participates) and waits
// for the cluster-internal synchronization to complete.
func (rt *Runtime) runJob(rc *rtCluster, job *clusterJob) {
	lead := rc.cl.Lead()
	rc.jobGen++
	job.gen = rc.jobGen
	job.finished = make([]bool, len(rc.cl.CEs))
	job.done = sim.NewCond(rt.M.Kernel, fmt.Sprintf("cfrt.job.c%d", rc.cl.ID))
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
// bus (or through global memory on an unclustered machine).
func (rt *Runtime) execJob(ce *cluster.CE, job *clusterJob) {
	// Mark this CE's share finished via defer: it holds on fail-stop
	// unwind too (a dead CE counts as done), so the cluster's lead is
	// never left waiting on a processor that will not report in.
	defer func() {
		job.finished[ce.ID.Local] = true
		if jobComplete(ce.Cluster, job) {
			job.done.Broadcast()
		}
	}()
	ec := rt.bodyCtx(ce, job.cat)
	for {
		i, ok := job.next(ce)
		if !ok {
			break
		}
		rt.M.Mon.Post(hpm.EvIterStart, ce.Global(), int64(i))
		job.body(ec, i)
		ec.flush()
		rt.M.Mon.Post(hpm.EvIterEnd, ce.Global(), int64(i))
		rt.OS.Poll(ce)
	}
	if rt.M.Cfg.Unclustered && job.al != nil {
		if rt.TreeFanout > 1 {
			rt.treeBarrier(ce, job.al)
		} else {
			rt.flatBarrier(ce, job.al)
		}
	} else {
		ce.ConcBusOp(rt.Cost.ConcBusSync, job.cat)
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

// flatBarrierDone reports whether every CE has arrived or fail-stopped
// — the degraded machine's barrier predicate (a dead CE is never
// coming, so survivors must not spin for it).
func (rt *Runtime) flatBarrierDone(al *activeLoop) bool {
	for _, cl := range rt.M.Clusters {
		for _, other := range cl.CEs {
			if !al.arrived[other.Global()] && !other.Failed() {
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
