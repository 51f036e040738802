package xylem

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hpm"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Region is a virtual-memory data region allocated in global memory.
//
// Xylem processes are made of cluster tasks that share portions of
// their address space; each cluster task's mapping of a shared page is
// established separately, so a region's pages fault once per cluster
// (this is why paging overhead grows with the number of clusters, one
// of the Section-5 scaling effects). Within a cluster, two or more CEs
// touching an unmapped page at overlapping times produce a concurrent
// page fault, which is more expensive per participant than a
// sequential fault and issues cross-processor interrupts (Section 5.1).
type Region struct {
	os    *OS
	Name  string
	Base  int64 // word address in global memory
	Words int64

	pageWords int64
	state     [][]uint8 // [cluster][page]
	inflight  map[int]*faultState
}

const (
	pageUnmapped uint8 = iota
	pageFaulting
	pageMapped
)

type faultState struct {
	done    *sim.Cond
	joiners int
}

// NewRegion allocates a data region of the given size (in 8-byte
// words) in global memory.
func (o *OS) NewRegion(name string, words int64) *Region {
	pageWords := o.Cost.PageBytes / 8
	pages := (words + pageWords - 1) / pageWords
	r := &Region{
		os:        o,
		Name:      name,
		Base:      o.M.AllocGM(words),
		Words:     words,
		pageWords: pageWords,
		state:     make([][]uint8, o.M.Cfg.Clusters),
		inflight:  make(map[int]*faultState),
	}
	for c := range r.state {
		r.state[c] = make([]uint8, pages)
	}
	o.regions = append(o.regions, r)
	return r
}

// Pages returns the number of pages in the region.
func (r *Region) Pages() int { return len(r.state[0]) }

// MappedPages returns how many pages the given cluster task has
// mapped so far.
func (r *Region) MappedPages(cluster int) int {
	n := 0
	for _, s := range r.state[cluster] {
		if s == pageMapped {
			n++
		}
	}
	return n
}

// Addr returns the global word address of the given word offset.
func (r *Region) Addr(offset int64) int64 { return r.Base + offset%r.Words }

// InvalidateMappings unmaps the region's mapped pages for cluster task
// cl (cl < 0: every cluster task) and returns the number of mappings
// dropped; subsequent touches re-fault them. A page with a fault in
// flight is not yet mapped, so it is left alone and does not count
// toward the returned total: its service completes normally and the
// page comes up mapped — invalidation never interrupts an in-flight
// service or strands its waiters.
func (r *Region) InvalidateMappings(cl int) int {
	n := 0
	for c := range r.state {
		if cl >= 0 && c != cl {
			continue
		}
		for p, s := range r.state[c] {
			if s == pageMapped {
				r.state[c][p] = pageUnmapped
				n++
			}
		}
	}
	return n
}

// Touch ensures the page span [offset, offset+words) is mapped in the
// calling CE's cluster task, servicing faults as needed. It returns
// the time consumed by fault handling (zero on the fast path).
func (r *Region) Touch(ce *cluster.CE, offset, words int64) sim.Duration {
	if words < 1 {
		words = 1
	}
	cl := ce.ID.Cluster
	pages := r.state[cl]
	first := offset / r.pageWords
	last := (offset + words - 1) / r.pageWords
	var total sim.Duration
	for pg := first; pg <= last; pg++ {
		p := int(pg % int64(len(pages)))
		if pages[p] == pageMapped {
			continue
		}
		total += r.fault(ce, cl, p)
	}
	return total
}

// Mapped reports whether every page of the span [offset, offset+words)
// is mapped in the CE's cluster task, so that Touch would take its fast
// path: no fault, no time, nothing changed.
func (r *Region) Mapped(ce *cluster.CE, offset, words int64) bool {
	pages := r.state[ce.ID.Cluster]
	last := (offset + max(words, 1) - 1) / r.pageWords
	for pg := offset / r.pageWords; pg <= last; pg++ {
		if pages[pg%int64(len(pages))] != pageMapped {
			return false
		}
	}
	return true
}

// fault services a fault on page p of cluster cl's mapping.
func (r *Region) fault(ce *cluster.CE, cl, p int) sim.Duration {
	o := r.os
	start := ce.Now()
	key := cl*len(r.state[cl]) + p
	switch r.state[cl][p] {
	case pageMapped:
		return 0

	case pageFaulting:
		// Concurrent fault: another CE of this cluster task is already
		// servicing this page. We trap, synchronize via a CPI, wait
		// for the service to complete, and pay our own (dearer) share
		// of the handling.
		o.M.Mon.Post(hpm.EvPgFltStart, ce.Global(), int64(p))
		fs := r.inflight[key]
		fs.joiners++
		o.concFaults++
		// A joiner that fail-stops while parked in Wait (or anywhere in
		// its share of the handling) unwinds with ErrAborted and must
		// uncount itself, or the owner classifies a solo service as
		// concurrent and concFaults/OSPgFltConc overcount a participant
		// that never completed.
		finished := false
		defer func() {
			if !finished {
				fs.joiners--
				o.concFaults--
			}
		}()
		waited := fs.done.Wait(ce.Proc)
		ce.Charge(waited, metrics.CatOSSystem)
		if r.state[cl][p] != pageMapped {
			// The owner fail-stopped mid-service and rolled the page
			// back to unmapped: retake the fault ourselves. The void
			// join stays counted — this CE did trap and synchronize.
			finished = true
			return ce.Now() - start + r.fault(ce, cl, p)
		}
		// After the owner finishes the service, each joiner still runs
		// its own trap handling and mapping fix-up — the reason a
		// concurrent fault is dearer per participant than a sequential
		// one — and pays the cross-processor interrupt that gathered
		// the trapped CEs to a single execution thread.
		ce.Spend(sim.Duration(o.Cost.PageFaultConc), metrics.CatOSSystem)
		o.Brk.Add(metrics.OSPgFltConc, ce.Now()-start)
		// The short CPI that collects the trapped CEs (a fraction of a
		// full gang-scheduling CPI).
		cpi := sim.Duration(o.Cost.CPIService / 4)
		ce.Spend(cpi, metrics.CatOSInterrupt)
		o.Brk.Add(metrics.OSCpi, cpi)
		o.M.Mon.Post(hpm.EvPgFltConcEnd, ce.Global(), int64(p))
		finished = true
		return ce.Now() - start

	default: // pageUnmapped
		o.M.Mon.Post(hpm.EvPgFltStart, ce.Global(), int64(p))
		r.state[cl][p] = pageFaulting
		// The cond's name carries the region, page, and owner so a
		// watchdog report is diagnosable from the error alone: a
		// stranded waiter names exactly which service wedged and which
		// CE owned it.
		fs := &faultState{done: sim.NewCond(o.M.Kernel,
			fmt.Sprintf("pgflt:%s.c%d.p%d(owner=ce%d)", r.Name, cl, p, ce.Global()))}
		r.inflight[key] = fs
		// The rollback-and-wake path. Deferred so it runs on the normal
		// return AND when the owner fail-stops anywhere in the service:
		// parked in lock.Acquire, mid-Spend inside Hold, or in the
		// post-map CPI (Kernel.Abort delivers ErrAborted as a panic
		// through whichever primitive the Proc sleeps in). If the
		// mapping never committed, roll the claim back so a woken
		// joiner retakes the fault; either way wake every joiner — an
		// owner that dies after the map but before the wakeup must not
		// strand them on cond:pgflt (the fail-stop page-fault deadlock).
		defer func() {
			if r.state[cl][p] == pageFaulting {
				r.state[cl][p] = pageUnmapped
			}
			if r.inflight[key] == fs {
				delete(r.inflight, key)
			}
			fs.done.Broadcast()
		}()

		// The pager runs under the cluster kernel lock briefly, then
		// services the fault.
		o.phase(ce, FaultPreLock)
		lock := o.clusterLocks[cl]
		if waited := lock.Acquire(ce.Proc); waited > 0 {
			ce.Charge(waited, metrics.CatOSSpin)
		}
		func() {
			defer lock.Release()
			o.phase(ce, FaultLocked)
			crit := sim.Duration(o.Cost.CritSectCluster / 4) // pager queue touch
			ce.Spend(crit, metrics.CatOSSystem)
			o.Brk.Add(metrics.OSCrSectClus, crit)
		}()

		o.phase(ce, FaultService)
		service := sim.Duration(o.Cost.PageFaultSeq)
		ce.Spend(service, metrics.CatOSSystem)

		r.state[cl][p] = pageMapped
		delete(r.inflight, key)
		o.phase(ce, FaultPreBroadcast)
		if fs.joiners > 0 {
			// Someone piled on: the whole service was a concurrent
			// fault, and the owner took part in the cross-processor
			// interrupt that collected the trapped CEs (Section 5.1).
			o.concFaults++
			o.Brk.Add(metrics.OSPgFltConc, service)
			cpi := sim.Duration(o.Cost.CPIService / 4)
			ce.Spend(cpi, metrics.CatOSInterrupt)
			o.Brk.Add(metrics.OSCpi, cpi)
			o.M.Mon.Post(hpm.EvPgFltConcEnd, ce.Global(), int64(p))
		} else {
			o.seqFaults++
			o.Brk.Add(metrics.OSPgFltSeq, service)
			o.M.Mon.Post(hpm.EvPgFltSeqEnd, ce.Global(), int64(p))
		}
		// The deferred rollback path broadcasts to the joiners.
		return ce.Now() - start
	}
}
