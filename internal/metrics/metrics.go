// Package metrics defines the time-accounting vocabulary shared by the
// hardware, OS, and runtime models: every cycle a CE spends is charged
// to exactly one Category, and per-CE Accounts are later folded by the
// analysis package into the paper's completion-time and user-time
// breakdowns (Figures 2–9).
package metrics

import (
	"fmt"

	"repro/internal/sim"
)

// Category classifies what a CE was doing during a span of virtual
// time. The categories are chosen so the paper's two breakdowns fold
// exactly:
//
//   - Figure 3 (CT breakdown): user = Serial..CacheStall + RTL
//     categories (user-level spinning is user time in the paper);
//     system = OSSystem; interrupt = OSInterrupt; spin = OSSpin.
//   - Figure 4 (user time breakdown): below-the-line = Serial, MCLoop,
//     LoopIter (+ their stall components); above-the-line
//     parallelization overheads = LoopSetup, PickIter, BarrierWait,
//     HelperWait.
type Category int

const (
	// CatSerial is main-task serial user code outside any loop.
	CatSerial Category = iota
	// CatMCLoop is execution of main-cluster-only loops (CDOALL or
	// CDOACROSS without an outer spread loop).
	CatMCLoop
	// CatLoopIter is execution of s(x)doall loop iteration bodies.
	CatLoopIter
	// CatGMStall is processor stall on global memory and network
	// (request issue to data return), charged while executing user
	// code.
	CatGMStall
	// CatCacheStall is stall on the cluster shared cache / cluster
	// memory.
	CatCacheStall
	// CatLoopSetup is runtime-library time setting up parallel loop
	// parameters.
	CatLoopSetup
	// CatPickIter is runtime-library time picking up loop iterations
	// and determining that none are left.
	CatPickIter
	// CatBarrierWait is main-task time spin-waiting at the s(x)doall
	// finish barrier.
	CatBarrierWait
	// CatHelperWait is helper-task time busy-waiting for parallel loop
	// work.
	CatHelperWait
	// CatOSSystem is system time: syscalls, context switches, critical
	// sections, page fault service.
	CatOSSystem
	// CatOSInterrupt is interrupt time: cross-processor interrupts,
	// software interrupts, ASTs.
	CatOSInterrupt
	// CatOSSpin is kernel lock spin time.
	CatOSSpin
	// CatIdle is time a CE is idle (no task scheduled on it).
	CatIdle

	// NumCategories is the number of accounting categories.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"serial", "mc-loop", "loop-iter", "gm-stall", "cache-stall",
	"loop-setup", "pick-iter", "barrier-wait", "helper-wait",
	"os-system", "os-interrupt", "os-spin", "idle",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// IsUser reports whether the category counts as user time in the
// paper's Figure 3 breakdown (which folds user-level spinning and
// runtime-library work into user time).
func (c Category) IsUser() bool {
	switch c {
	case CatSerial, CatMCLoop, CatLoopIter, CatGMStall, CatCacheStall,
		CatLoopSetup, CatPickIter, CatBarrierWait, CatHelperWait:
		return true
	}
	return false
}

// IsActive reports whether a CE in this category counts as "active"
// for the statfx concurrency measure: executing instructions, in user
// or kernel space. Spin-waiting counts — a spinning CE executes its
// poll loop — which is what makes the paper's Section-7 equation
// consistent: "the concurrency during non-parallel work such as serial
// code execution, picking up iterations for the sdoall loops,
// spin-waiting at the barrier, and busy-waiting for work, is 1 on each
// cluster" (only the task's lead CE spins; its siblings are parked by
// the gang scheduler). Only a parked CE is inactive.
func (c Category) IsActive() bool { return c != CatIdle }

// Account accumulates per-category time for one CE.
type Account struct {
	ce     int // global CE index
	totals [NumCategories]sim.Duration
}

// NewAccount creates an account for the CE with the given global
// index.
func NewAccount(ce int) *Account { return &Account{ce: ce} }

// NewAccountBlock allocates n accounts in one contiguous block, with
// global CE indices 0..n-1. The machine uses this so every CE's totals
// live side by side — the accounting hot path (one Add per Spend) and
// whole-machine folds then walk dense memory instead of n scattered
// heap objects.
func NewAccountBlock(n int) []Account {
	block := make([]Account, n)
	for i := range block {
		block[i].ce = i
	}
	return block
}

// CE returns the global CE index the account belongs to.
func (a *Account) CE() int { return a.ce }

// Add charges d cycles to category c.
func (a *Account) Add(c Category, d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative charge %d to %v", d, c))
	}
	a.totals[c] += d
}

// Get returns the total charged to category c.
func (a *Account) Get(c Category) sim.Duration { return a.totals[c] }

// Total returns the sum over all categories.
func (a *Account) Total() sim.Duration {
	var t sim.Duration
	for _, v := range a.totals {
		t += v
	}
	return t
}

// UserTotal returns the sum over user categories (paper Figure 3).
func (a *Account) UserTotal() sim.Duration {
	var t sim.Duration
	for c := Category(0); c < NumCategories; c++ {
		if c.IsUser() {
			t += a.totals[c]
		}
	}
	return t
}

// ActiveTotal returns the sum over active categories (statfx).
func (a *Account) ActiveTotal() sim.Duration {
	var t sim.Duration
	for c := Category(0); c < NumCategories; c++ {
		if c.IsActive() {
			t += a.totals[c]
		}
	}
	return t
}

// OSCategory identifies one row of the paper's Table 2 — the detailed
// operating system activities.
type OSCategory int

const (
	// OSCpi is cross-processor interrupt servicing.
	OSCpi OSCategory = iota
	// OSCtx is context switching.
	OSCtx
	// OSPgFltConc is concurrent page fault handling.
	OSPgFltConc
	// OSPgFltSeq is sequential page fault handling.
	OSPgFltSeq
	// OSCrSectClus is cluster critical section / resource access.
	OSCrSectClus
	// OSCrSectGlbl is global critical section / resource access.
	OSCrSectGlbl
	// OSClusSyscall is cluster system call servicing.
	OSClusSyscall
	// OSGlblSyscall is global system call servicing.
	OSGlblSyscall
	// OSAst is asynchronous system trap servicing.
	OSAst

	// NumOSCategories is the number of detailed OS categories.
	NumOSCategories
)

var osCategoryNames = [NumOSCategories]string{
	"cpi", "ctx", "pg flt (c)", "pg flt (s)",
	"Cr Sect (clus)", "Cr Sect (glbl)",
	"clus syscall", "glbl syscall", "ast",
}

// String implements fmt.Stringer using the paper's Table 2 labels.
func (c OSCategory) String() string {
	if c < 0 || c >= NumOSCategories {
		return fmt.Sprintf("OSCategory(%d)", int(c))
	}
	return osCategoryNames[c]
}

// OSBreakdown accumulates the Table-2 detail: per-activity time and
// event counts, machine-wide.
type OSBreakdown struct {
	Time  [NumOSCategories]sim.Duration
	Count [NumOSCategories]uint64
}

// Add charges d cycles and one event to OS activity c.
func (b *OSBreakdown) Add(c OSCategory, d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("metrics: negative OS charge %d to %v", d, c))
	}
	b.Time[c] += d
	b.Count[c]++
}

// Total returns the total time across all OS activities.
func (b *OSBreakdown) Total() sim.Duration {
	var t sim.Duration
	for _, v := range b.Time {
		t += v
	}
	return t
}
