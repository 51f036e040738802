// Package xylem models Cedar's operating system. Xylem is a Unix
// extension managing the hierarchical Cedar hardware: Xylem processes
// are made of cluster tasks, clusters are gang scheduled, and the OS
// provides virtual memory, system calls, and inter-task
// synchronization (Section 2 of the paper).
//
// The model produces every overhead class the paper's Section 5
// characterizes, with the same structure:
//
//   - page faults on first touch, classified sequential or concurrent
//     (two or more CEs faulting on the same page simultaneously), the
//     concurrent kind being more expensive and issuing cross-processor
//     interrupts;
//   - cross-processor interrupts (CPIs) for concurrent faults,
//     scheduling, and context switching, costing every participating
//     CE its register save/restore and accounting time;
//   - context switches driven by a per-cluster bookkeeping clock (in a
//     dedicated system the application is switched out when the OS
//     server must do bookkeeping);
//   - cluster and global system calls;
//   - cluster and global critical sections protected by kernel memory
//     locks, with lock spin accounted separately (the paper finds it
//     negligible — and so does the model, because OS lock hold times
//     are short relative to their access rates).
//
// Interrupt-class work (CPIs, context switches, ASTs) is delivered at
// preemption points: the runtime polls the OS between loop iterations
// and inside spin loops, mirroring how gang-scheduled CEs reach
// interrupt delivery on the real machine.
package xylem

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/hpm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// OS is the Xylem model for one machine.
type OS struct {
	M    *cluster.Machine
	Cost arch.CostModel
	Brk  *metrics.OSBreakdown
	// FaultHook, when non-nil, is called with the owning CE at each
	// FaultPhase of every page-fault service. Fault-injection tests and
	// the schedule fuzzer use it to land fail-stops in exact windows: a
	// hook may call CE.Fail directly (the service unwinds right there)
	// or schedule a later one. Nil in normal operation.
	FaultHook func(ce *cluster.CE, phase FaultPhase)

	globalLock   *sim.Resource
	clusterLocks []*sim.Resource

	pending    [][]pendingCharge // per global CE id
	regions    []*Region
	tickEvents []sim.Event
	stopped    bool

	// Event counters beyond Brk (fault classification).
	seqFaults  uint64
	concFaults uint64
}

type pendingCharge struct {
	os   metrics.OSCategory
	cat  metrics.Category
	cost sim.Duration
}

// FaultPhase names a point in the page-fault service path where the
// owner CE can fail-stop with distinct consequences. The phases match
// the hand-off structure of Region.fault: each one is a window the
// fail-stop deadlock regression suite kills the owner in.
type FaultPhase int

const (
	// FaultPreLock: the claim is taken (page marked faulting, joiners
	// can pile on) but the cluster kernel lock is not yet acquired —
	// the owner may be parked in lock.Acquire.
	FaultPreLock FaultPhase = iota
	// FaultLocked: the owner holds the cluster kernel lock for the
	// pager queue touch.
	FaultLocked
	// FaultService: the lock is dropped and the fault service time is
	// about to be spent (a Hold the owner can die inside).
	FaultService
	// FaultPreBroadcast: the page is mapped but the joiners are not yet
	// woken — the window whose unguarded exit was the fail-stop
	// page-fault deadlock.
	FaultPreBroadcast
)

var faultPhaseNames = [...]string{"pre-lock", "locked", "service", "pre-broadcast"}

// String implements fmt.Stringer.
func (ph FaultPhase) String() string {
	if ph < 0 || int(ph) >= len(faultPhaseNames) {
		return fmt.Sprintf("FaultPhase(%d)", int(ph))
	}
	return faultPhaseNames[ph]
}

// phase fires the FaultHook, if armed.
func (o *OS) phase(ce *cluster.CE, ph FaultPhase) {
	if o.FaultHook != nil {
		o.FaultHook(ce, ph)
	}
}

// New creates the OS for a machine.
func New(m *cluster.Machine) *OS {
	os := &OS{
		M:          m,
		Cost:       m.Cost,
		Brk:        &metrics.OSBreakdown{},
		globalLock: sim.NewLock(m.Kernel, "xylem.glock"),
		pending:    make([][]pendingCharge, m.Cfg.CEs()),
	}
	for c := 0; c < m.Cfg.Clusters; c++ {
		os.clusterLocks = append(os.clusterLocks,
			sim.NewLock(m.Kernel, fmt.Sprintf("xylem.clock%d", c)))
	}
	return os
}

// Start begins the per-cluster bookkeeping clocks (context switching
// and AST delivery). Call once, before the application starts.
func (o *OS) Start() {
	for c := range o.M.Clusters {
		o.scheduleTick(c, sim.Duration(o.Cost.SchedTickCycles))
		o.scheduleAST(c, sim.Duration(o.Cost.ASTPeriodCycles))
	}
}

// Stop cancels the bookkeeping clocks. Call when the application
// completes, before draining the kernel.
func (o *OS) Stop() {
	o.stopped = true
	for _, e := range o.tickEvents {
		e.Cancel()
	}
	o.tickEvents = nil
}

func (o *OS) scheduleTick(c int, d sim.Duration) {
	k := o.M.Kernel
	ev := k.After(d, func() {
		if o.stopped {
			return
		}
		// Bookkeeping forces a context switch of the gang-scheduled
		// cluster task: every CE of the cluster saves and restores
		// state, and a CPI obtains the single execution thread.
		for _, ce := range o.M.Clusters[c].CEs {
			o.enqueue(ce, pendingCharge{metrics.OSCtx, metrics.CatOSSystem, sim.Duration(o.Cost.CtxSwitch)})
			o.enqueue(ce, pendingCharge{metrics.OSCpi, metrics.CatOSInterrupt, sim.Duration(o.Cost.CPIService)})
		}
		// The OS server's own bookkeeping: scheduler-queue and pager
		// critical sections on every CE, plus the server's cluster and
		// (occasional) global system calls and resource accesses on
		// the lead.
		for _, ce := range o.M.Clusters[c].CEs {
			o.enqueue(ce, pendingCharge{metrics.OSCrSectClus, metrics.CatOSSystem,
				sim.Duration(o.Cost.CritSectCluster)})
		}
		lead := o.M.Clusters[c].Lead()
		o.enqueue(lead, pendingCharge{metrics.OSClusSyscall, metrics.CatOSSystem,
			sim.Duration(o.Cost.SyscallCluster)})
		o.enqueue(lead, pendingCharge{metrics.OSCrSectGlbl, metrics.CatOSSystem,
			sim.Duration(o.Cost.CritSectGlobal)})
		o.scheduleTick(c, sim.Duration(o.Cost.SchedTickCycles))
	})
	o.tickEvents = append(o.tickEvents, ev)
}

func (o *OS) scheduleAST(c int, d sim.Duration) {
	k := o.M.Kernel
	ev := k.After(d, func() {
		if o.stopped {
			return
		}
		o.enqueue(o.M.Clusters[c].Lead(),
			pendingCharge{metrics.OSAst, metrics.CatOSInterrupt, sim.Duration(o.Cost.ASTService)})
		o.scheduleAST(c, sim.Duration(o.Cost.ASTPeriodCycles))
	})
	o.tickEvents = append(o.tickEvents, ev)
}

func (o *OS) enqueue(ce *cluster.CE, pc pendingCharge) {
	g := ce.Global()
	o.pending[g] = append(o.pending[g], pc)
}

// Pending reports whether interrupt or context-switch work waits for
// the CE's next Poll. It changes nothing, so a caller that cannot run
// Poll (a callback chain) can ask whether it must hand the CE back to
// its process first.
func (o *OS) Pending(ce *cluster.CE) bool { return len(o.pending[ce.Global()]) > 0 }

// Poll delivers any pending interrupt/context-switch work to the CE.
// The runtime calls it at preemption points (loop iteration
// boundaries, spin-loop polls). It returns the time consumed.
func (o *OS) Poll(ce *cluster.CE) sim.Duration {
	g := ce.Global()
	if len(o.pending[g]) == 0 {
		return 0
	}
	mon := o.M.Mon
	mon.Post(hpm.EvIntrStart, g, int64(len(o.pending[g])))
	var total sim.Duration
	for _, pc := range o.pending[g] {
		ce.Spend(pc.cost, pc.cat)
		o.Brk.Add(pc.os, pc.cost)
		total += pc.cost
	}
	o.pending[g] = o.pending[g][:0]
	mon.Post(hpm.EvIntrEnd, g, 0)
	return total
}

// FlushAccounting charges any still-undelivered pending work to the
// accounts without advancing time. Call at completion so Table-2
// totals include work that accrued near the end of the run.
func (o *OS) FlushAccounting() {
	for g, q := range o.pending {
		ce := o.M.CE(g)
		for _, pc := range q {
			ce.Charge(pc.cost, pc.cat)
			o.Brk.Add(pc.os, pc.cost)
		}
		o.pending[g] = o.pending[g][:0]
	}
}

// ClusterSyscall services a cluster system call on the CE: enter the
// cluster kernel (spin on the cluster memory lock if contended), run
// the handler, return.
func (o *OS) ClusterSyscall(ce *cluster.CE) {
	o.lockedService(ce, o.clusterLocks[ce.ID.Cluster],
		sim.Duration(o.Cost.SyscallCluster), metrics.OSClusSyscall)
}

// GlobalSyscall services a global system call (task creation,
// cross-cluster operations) under the global kernel lock.
func (o *OS) GlobalSyscall(ce *cluster.CE) {
	o.lockedService(ce, o.globalLock,
		sim.Duration(o.Cost.SyscallGlobal), metrics.OSGlblSyscall)
}

// ClusterCritSect enters and leaves a cluster critical section
// (scheduler queues, pager structures).
func (o *OS) ClusterCritSect(ce *cluster.CE) {
	o.lockedService(ce, o.clusterLocks[ce.ID.Cluster],
		sim.Duration(o.Cost.CritSectCluster), metrics.OSCrSectClus)
}

func (o *OS) lockedService(ce *cluster.CE, lock *sim.Resource, cost sim.Duration, cat metrics.OSCategory) {
	mon, g := o.M.Mon, ce.Global()
	mon.Post(hpm.EvOSEnter, g, int64(cat))
	if waited := lock.Acquire(ce.Proc); waited > 0 {
		ce.Charge(waited, metrics.CatOSSpin) // kernel lock spin (Figure 3)
	}
	mon.Post(hpm.EvOSGranted, g, int64(cat))
	// Release via defer: a CE that fail-stops inside the kernel must
	// not take the lock down with it.
	defer lock.Release()
	ce.Spend(cost, metrics.CatOSSystem)
	o.Brk.Add(cat, cost)
	mon.Post(hpm.EvOSExit, g, int64(cat))
}

// LockStall models a kernel-lock holder stall: a rogue kernel thread
// seizes a kernel memory lock and sits on it for span cycles, so every
// CE entering that kernel path spins (charged to the paper's KL-spin
// category). clusterID selects a cluster kernel lock; clusterID < 0
// targets the global kernel lock.
func (o *OS) LockStall(clusterID int, span sim.Duration) {
	lock := o.globalLock
	name := "xylem.stall.glock"
	if clusterID >= 0 {
		c := clusterID % len(o.clusterLocks)
		lock = o.clusterLocks[c]
		name = fmt.Sprintf("xylem.stall.clock%d", c)
	}
	o.M.Kernel.Spawn(name, func(p *sim.Proc) {
		lock.Acquire(p)
		defer lock.Release()
		p.Hold(span)
	})
}

// InvalidateMappings unmaps every mapped page of every region for the
// given cluster task (clusterID < 0: all cluster tasks), modeling a
// paging storm — the pager reclaiming frames under memory pressure so
// the application re-faults its working set. It returns the number of
// mappings dropped. A page whose fault is still in flight is not yet a
// mapping: it is left alone, excluded from the count, and its service
// completes normally (see Region.InvalidateMappings).
func (o *OS) InvalidateMappings(clusterID int) int {
	n := 0
	for _, r := range o.regions {
		n += r.InvalidateMappings(clusterID)
	}
	return n
}

// SeqFaults returns the number of sequential page faults serviced.
func (o *OS) SeqFaults() uint64 { return o.seqFaults }

// ConcFaults returns the number of concurrent page fault services
// (each participant counts once).
func (o *OS) ConcFaults() uint64 { return o.concFaults }
