// Package cluster assembles the machine family's hardware: a Machine
// of Alliant FX/8-style clusters — as many as the configuration names,
// one to four on the paper's Cedar — each with its configured number
// of computational elements (CEs), a shared data cache, and a
// concurrency-control bus, all connected through the shuffle-exchange
// networks to the interleaved global memory (packages network and
// gmem). Every size here derives from the arch.Config.
//
// A CE couples a simulation process with a time account: every cycle a
// CE spends is charged to a metrics.Category, which is what the
// analysis package later folds into the paper's breakdowns.
package cluster

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/gmem"
	"repro/internal/hpm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Machine is a full Cedar configuration under simulation.
type Machine struct {
	Cfg      arch.Config
	Cost     arch.CostModel
	Kernel   *sim.Kernel
	GM       *gmem.Memory
	Clusters []*Cluster
	// Mon is the machine's cedarhpm monitor: the runtime, Xylem, and
	// the global-memory stall trigger points all post to it. Set it
	// before the run starts; nil (disarmed) costs one pointer
	// comparison per trigger point.
	Mon *hpm.Monitor
	// ConcBus holds each cluster's concurrency-control bus, entry c
	// serializing cluster c's transactions (CDOALL dispatch, cluster
	// barrier sync).
	ConcBus *sim.CalendarStore

	gmBrk  int64 // bump allocator for global memory, in words
	failed int   // CEs failed via CE.Fail

	// Hot per-CE state, flattened into machine-owned struct-of-arrays
	// indexed by global CE id. The event loop reads and writes these on
	// every Spend, and the statfx sampler scans them every sampling
	// tick (the series probes of an observed run on the same tick); keeping them in dense arrays (rather than fields
	// of heap-scattered CE objects) is what makes sampling a
	// 1024-4096-CE machine a linear cache-friendly walk.
	busyCat  []metrics.Category // what each CE is doing right now
	ceFailed []bool             // fail-stopped via CE.Fail
	ceSlow   []float64          // clock degradation; 0 or 1 = healthy

	// Contiguous backing storage and cached machine-order views. The
	// views are built once at construction; callers must treat the
	// returned slices as read-only.
	ceBlock   []CE
	acctBlock []metrics.Account
	allCEs    []*CE
	accounts  []*metrics.Account
}

// NewMachine builds the hardware for cfg on the given kernel.
func NewMachine(k *sim.Kernel, cfg arch.Config, cost arch.CostModel) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		Cfg:     cfg,
		Cost:    cost,
		Kernel:  k,
		GM:      gmem.New(cfg, cost),
		ConcBus: sim.NewCalendarStore(cfg.Clusters),
	}
	n := cfg.CEs()
	m.busyCat = make([]metrics.Category, n)
	m.ceFailed = make([]bool, n)
	m.ceSlow = make([]float64, n)
	m.ceBlock = make([]CE, n)
	m.acctBlock = metrics.NewAccountBlock(n)
	m.allCEs = make([]*CE, n)
	m.accounts = make([]*metrics.Account, n)
	for c := 0; c < cfg.Clusters; c++ {
		m.Clusters = append(m.Clusters, newCluster(m, c))
	}
	return m
}

// AllocGM reserves words 8-byte words of global memory and returns the
// base address (word-addressed). Allocation is a simple bump pointer;
// the interleaving of the returned region across modules follows from
// the address.
func (m *Machine) AllocGM(words int64) int64 {
	base := m.gmBrk
	m.gmBrk += words
	return base
}

// CE returns the CE with the given machine-wide index.
func (m *Machine) CE(global int) *CE {
	id := m.Cfg.CEByGlobal(global)
	return m.Clusters[id.Cluster].CEs[id.Local]
}

// AllCEs returns every CE in machine order. The slice is a cached
// view built at construction; callers must not mutate it.
func (m *Machine) AllCEs() []*CE { return m.allCEs }

// ActiveCEs returns how many CEs are in an active category right now —
// the machine-wide statfx sampling quantity, computed as one scan of
// the flat busy array.
func (m *Machine) ActiveCEs() int {
	n := 0
	for _, c := range m.busyCat {
		if c.IsActive() {
			n++
		}
	}
	return n
}

// ClusterActiveCEs returns how many of cluster c's CEs are in an
// active category right now. Global CE ids are contiguous per cluster,
// so this is a scan of one dense segment of the busy array.
func (m *Machine) ClusterActiveCEs(c int) int {
	base := c * m.Cfg.CEsPerCluster
	n := 0
	for _, cat := range m.busyCat[base : base+m.Cfg.CEsPerCluster] {
		if cat.IsActive() {
			n++
		}
	}
	return n
}

// LiveCEs returns the number of CEs that have not failed.
func (m *Machine) LiveCEs() int { return m.Cfg.CEs() - m.failed }

// FailedCEs returns the number of CEs failed via CE.Fail.
func (m *Machine) FailedCEs() int { return m.failed }

// Accounts returns every CE's account in machine order. The slice is
// a cached view built at construction; callers must not mutate it.
func (m *Machine) Accounts() []*metrics.Account { return m.accounts }

// Cluster is one Alliant FX/8: up to 8 CEs, a shared data cache, and
// the concurrency-control bus that provides fast intra-cluster loop
// distribution and synchronization.
type Cluster struct {
	Machine *Machine
	ID      int
	CEs     []*CE
	Cache   *cache.Cache
}

func newCluster(m *Machine, id int) *Cluster {
	cl := &Cluster{
		Machine: m,
		ID:      id,
		Cache:   cache.New(m.Cost),
	}
	for l := 0; l < m.Cfg.CEsPerCluster; l++ {
		cid := arch.CEID{Cluster: id, Local: l}
		g := cid.Global(m.Cfg)
		ce := &m.ceBlock[g]
		*ce = CE{
			ID:      cid,
			Cluster: cl,
			Acct:    &m.acctBlock[g],
			mach:    m,
			global:  g,
		}
		m.busyCat[g] = metrics.CatIdle
		m.allCEs[g] = ce
		m.accounts[g] = ce.Acct
		cl.CEs = append(cl.CEs, ce)
	}
	return cl
}

// Lead returns the cluster's lead CE (local index 0).
func (c *Cluster) Lead() *CE { return c.CEs[0] }

// CE is one computational element: a pipelined vector processor. Its
// Proc field is bound when the runtime spawns the CE's driver process.
type CE struct {
	ID      arch.CEID
	Cluster *Cluster
	Acct    *metrics.Account
	Proc    *sim.Proc

	// The CE's mutable hot state (busy category, failed flag, slow
	// factor) lives in the machine's struct-of-arrays at index global;
	// the CE object itself only carries identity and wiring.
	mach   *Machine
	global int

	// step is the activity the CE is spending time in (see FinishStep).
	step step
}

// step is one timed CE activity: begun by a Start method, which marks
// the CE busy in cat and returns d, and ended by FinishStep. stallEnd
// asks FinishStep to post hpm.EvGMStallEnd for the access at addr.
type step struct {
	cat, prev metrics.Category
	d         sim.Duration
	addr      int64
	stallEnd  bool
}

// Machine returns the machine the CE belongs to.
func (ce *CE) Machine() *Machine { return ce.mach }

// Global returns the machine-wide CE index.
func (ce *CE) Global() int { return ce.global }

// Now returns the current virtual time.
func (ce *CE) Now() sim.Time { return ce.Proc.Now() }

// Spend advances the CE d cycles of its own work, charged to category
// cat. A degraded CE (SetSlowFactor) takes proportionally longer.
// While the time passes, Busy reports cat (visible to sampling
// monitors).
func (ce *CE) Spend(d sim.Duration, cat metrics.Category) {
	ce.hold(ce.StartSpend(d, cat))
}

// StartSpend starts Spend's step without holding: the CE is busy in
// cat from now on, for the returned duration (0: nothing to do). The
// caller must let exactly that much time pass and then call
// FinishStep. Spend and GMAccessAs are a Start method, a Hold and
// FinishStep; a callback chain (sim.Proc.Chain) runs the same steps
// with FinishStep called from an event callback.
func (ce *CE) StartSpend(d sim.Duration, cat metrics.Category) sim.Duration {
	if s := ce.mach.ceSlow[ce.global]; s > 1 {
		d = sim.Duration(float64(d)*s + 0.5)
	}
	return ce.start(d, cat)
}

// start begins a step of exactly d cycles charged to cat, with no clock
// degradation, and returns d; a step of no time is not begun and
// returns 0.
func (ce *CE) start(d sim.Duration, cat metrics.Category) sim.Duration {
	if d <= 0 {
		return 0
	}
	busy := ce.mach.busyCat
	ce.step = step{cat: cat, prev: busy[ce.global], d: d}
	busy[ce.global] = cat
	return d
}

// hold runs the step begun by a Start method on the CE's process: it
// holds for the step's d cycles and finishes it.
func (ce *CE) hold(d sim.Duration) {
	if d > 0 {
		ce.Proc.Hold(d)
		ce.FinishStep()
	}
}

// FinishStep ends the step in progress: Busy reports the category the
// CE had before the step, the step's time is charged to its category,
// and a slow global-memory access posts its hpm.EvGMStallEnd. A CE
// that fail-stops mid-step never finishes it, so its account freezes
// at the step's start.
func (ce *CE) FinishStep() {
	s := &ce.step
	ce.mach.busyCat[ce.global] = s.prev
	ce.Acct.Add(s.cat, s.d)
	if s.stallEnd {
		ce.mach.Mon.Post(hpm.EvGMStallEnd, ce.global, s.addr)
	}
}

// Busy returns the category the CE is spending time in right now, or
// metrics.CatIdle if it is blocked or between activities.
func (ce *CE) Busy() metrics.Category { return ce.mach.busyCat[ce.global] }

// SpendUntil advances the CE to absolute time t, charged to cat. The
// end time is externally fixed, so clock degradation does not apply.
func (ce *CE) SpendUntil(t sim.Time, cat metrics.Category) {
	ce.hold(ce.start(t-ce.Now(), cat))
}

// Fail marks the CE fail-stopped and aborts its driver process: the
// process unwinds through its deferred protocol cleanups and never
// runs again. The CE's account freezes at the failure time. Idempotent.
func (ce *CE) Fail() {
	if ce.mach.ceFailed[ce.global] {
		return
	}
	ce.mach.ceFailed[ce.global] = true
	// A fail-stop can land mid-step: the abort unwinds out of Hold, or
	// out of a parked callback chain, before FinishStep restores
	// busyCat, which would leave the dead CE permanently "active" to
	// sampling monitors (statfx would keep counting it toward
	// concurrency). Park it explicitly.
	ce.mach.busyCat[ce.global] = metrics.CatIdle
	m := ce.mach
	m.failed++
	if ce.Proc != nil {
		m.Kernel.Abort(ce.Proc)
	}
}

// Failed reports whether the CE has fail-stopped.
func (ce *CE) Failed() bool { return ce.mach.ceFailed[ce.global] }

// SetSlowFactor degrades the CE's clock: every subsequent Spend takes
// factor times as long. Factors <= 1 restore full speed.
func (ce *CE) SetSlowFactor(factor float64) { ce.mach.ceSlow[ce.global] = factor }

// Charge records d cycles against cat without advancing time — used
// when the wait already happened inside a blocking primitive.
func (ce *CE) Charge(d sim.Duration, cat metrics.Category) {
	ce.Acct.Add(cat, d)
}

// SlowStall is the stall, in cycles, at or above which a global-memory
// access posts its trigger points: hpm.EvGMStallStart/End around a
// stall of at least SlowStall, and hpm.EvGMHot for an access whose
// queueing alone reaches it.
const SlowStall = 2_000

// GMAccessAs performs a global memory access of the given word count
// at addr and stalls the CE until the data returns, charging the stall
// to cat: metrics.CatGMStall for data, or e.g. CatPickIter for
// iteration-pickup traffic. It returns the total stall and the
// queueing (contention) portion.
func (ce *CE) GMAccessAs(addr int64, words int, cat metrics.Category) (stall, queued sim.Duration) {
	stall, queued = ce.StartGMAccess(addr, words, cat)
	ce.hold(stall)
	return stall, queued
}

// StartGMAccess is GMAccessAs's step, started without holding (see
// StartSpend): the access is booked now and the CE stalls for the
// returned stall, charged to cat. It also returns the queueing part.
func (ce *CE) StartGMAccess(addr int64, words int, cat metrics.Category) (stall, queued sim.Duration) {
	m := ce.mach
	now := ce.Now()
	done, q := m.GM.Access(now, ce.ID, addr, words)
	stall = done - now
	ce.start(stall, cat)
	if m.Mon != nil && stall >= SlowStall {
		if q >= SlowStall {
			m.Mon.Post(hpm.EvGMHot, ce.global, int64(m.GM.Module(addr)))
		}
		m.Mon.Post(hpm.EvGMStallStart, ce.global, addr)
		ce.step.addr, ce.step.stallEnd = addr, true
	}
	return stall, q
}

// StartCacheAccess starts a reference to words of cluster memory
// through the cluster's shared cache, with the workload's expected hit
// ratio, without holding (see StartSpend): the CE stalls until the
// banks deliver, including any queueing behind the cluster's other
// CEs, and the stall, which it returns, is charged to
// metrics.CatCacheStall.
func (ce *CE) StartCacheAccess(words int, hitRatio float64) sim.Duration {
	now := ce.Now()
	done, _ := ce.Cluster.Cache.Access(now, words, hitRatio)
	return ce.start(done-now, metrics.CatCacheStall)
}

// ConcBusOp performs a concurrency-control-bus transaction of the
// given cost, waiting for the bus if another transaction is in flight,
// and charges the elapsed time to cat.
func (ce *CE) ConcBusOp(cost int64, cat metrics.Category) {
	now := ce.Now()
	_, end := ce.mach.ConcBus.Reserve(ce.Cluster.ID, now, sim.Duration(cost))
	ce.SpendUntil(end, cat)
}
