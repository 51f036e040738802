// Package hpm models cedarhpm, the non-intrusive hardware performance
// monitor developed at UICSRD that the paper's measurements rely on.
// Instrumented code posts events to hardware trigger points; the
// monitor records (event id, timestamp, processor id) triples into
// trace buffers with 50 ns resolution — which is exactly one cycle of
// this simulation's clock, so timestamps are stored directly in
// cycles.
//
// Recording an event on the real machine costs a single move
// instruction; the model charges nothing, which is the same
// "negligible overhead" the paper claims, taken to its limit.
package hpm

import (
	"fmt"

	"repro/internal/sim"
)

// EventID identifies an instrumented trigger point. The vocabulary
// follows Section 4 of the paper: runtime-library events (a)–(f), the
// OS context-switch identifier, Xylem's service instrumentation, and
// hardware stall trigger points.
type EventID uint8

const (
	// EvLoopPost: the main task encountering an s(x)doall loop and
	// posting it in shared global memory.
	EvLoopPost EventID = iota
	// EvHelperJoin: a helper task joining in the execution of an
	// s(x)doall loop.
	EvHelperJoin
	// EvPickStart / EvPickEnd: entry and exit from the pick next
	// iteration routine.
	EvPickStart
	EvPickEnd
	// EvIterStart / EvIterEnd: start and end of an s(x)doall iteration
	// execution.
	EvIterStart
	EvIterEnd
	// EvBarrierEnter / EvBarrierExit: entry and exit from the
	// s(x)doall-finish-barrier for the main task.
	EvBarrierEnter
	EvBarrierExit
	// EvWaitStart / EvWaitEnd: entry and exit from the wait-for-work
	// routine for the helper tasks.
	EvWaitStart
	EvWaitEnd
	// EvHelperDetach: a helper task detaching from a loop.
	EvHelperDetach
	// EvCtxSwitch: the Xylem context switching identifier.
	EvCtxSwitch
	// EvMCLoopStart / EvMCLoopEnd: application-code instrumentation
	// around main cluster-only loops (footnote 2 of the paper).
	EvMCLoopStart
	EvMCLoopEnd
	// EvSerialStart / EvSerialEnd: serial section boundaries.
	EvSerialStart
	EvSerialEnd
	// EvFaultInject: a fault-plan event fired (degraded-mode runs).
	// Arg is the faults.Kind; CE is the fault's target index.
	EvFaultInject
	// EvOSEnter / EvOSGranted / EvOSExit: a Xylem system call or
	// critical section entering the kernel, obtaining its kernel
	// memory lock, and returning. Aux is the metrics.OSCategory.
	EvOSEnter
	EvOSGranted
	EvOSExit
	// EvIntrStart / EvIntrEnd: delivery of pending interrupt-class
	// work at a preemption point. Aux is the number of items delivered.
	EvIntrStart
	EvIntrEnd
	// EvPgFltStart: a page-fault service begins; EvPgFltSeqEnd and
	// EvPgFltConcEnd end it as a sequential or concurrent fault. Aux
	// is the page.
	EvPgFltStart
	EvPgFltSeqEnd
	EvPgFltConcEnd
	// EvGMStallStart / EvGMStallEnd: a slow global-memory access
	// stalls the CE. Aux is the word address.
	EvGMStallStart
	EvGMStallEnd
	// EvGMHot: a global-memory access queued past the slow-stall
	// threshold. Aux is the access's home module.
	EvGMHot

	// NumEvents is the number of event kinds.
	NumEvents
)

var eventNames = [NumEvents]string{
	"loop-post", "helper-join", "pick-start", "pick-end",
	"iter-start", "iter-end", "barrier-enter", "barrier-exit",
	"wait-start", "wait-end", "helper-detach", "ctx-switch",
	"mcloop-start", "mcloop-end", "serial-start", "serial-end",
	"fault-inject", "os-enter", "os-granted", "os-exit",
	"intr-start", "intr-end", "pgflt-start", "pgflt-seq-end",
	"pgflt-conc-end", "gmstall-start", "gmstall-end", "gm-hot",
}

// String implements fmt.Stringer.
func (e EventID) String() string {
	if e >= NumEvents {
		return fmt.Sprintf("EventID(%d)", uint8(e))
	}
	return eventNames[e]
}

// Record is one trace entry.
type Record struct {
	Event EventID
	CE    int // machine-wide processor id
	At    sim.Time
	Aux   int64 // event-dependent: loop, iteration, category, page, address
}

// Monitor is the trace collector. A nil *Monitor is valid and records
// nothing (instrumentation compiled in, monitor disarmed).
type Monitor struct {
	k        *sim.Kernel
	capacity int
	buf      []Record
	dropped  uint64
	counts   [NumEvents]uint64
}

// New creates a monitor with the given trace-buffer capacity.
func New(k *sim.Kernel, capacity int) *Monitor {
	return &Monitor{k: k, capacity: capacity}
}

// Post records an event for the given CE at the current virtual time.
func (m *Monitor) Post(ev EventID, ce int, aux int64) {
	if m == nil {
		return
	}
	m.counts[ev]++
	if len(m.buf) >= m.capacity {
		m.dropped++
		return
	}
	m.buf = append(m.buf, Record{Event: ev, CE: ce, At: m.k.Now(), Aux: aux})
}

// Trace returns the recorded events in time order (they are recorded
// in dispatch order, which is time order).
func (m *Monitor) Trace() []Record {
	if m == nil {
		return nil
	}
	return m.buf
}

// Dropped returns how many records were lost to a full buffer.
func (m *Monitor) Dropped() uint64 {
	if m == nil {
		return 0
	}
	return m.dropped
}

// Count returns how many events of the given kind were posted
// (recorded or not).
func (m *Monitor) Count(ev EventID) uint64 {
	if m == nil {
		return 0
	}
	return m.counts[ev]
}

// PairDurations matches start/end event pairs per CE and returns the
// total enclosed time per CE — the trace-analysis primitive used to
// derive the user-time breakdown in Section 6.
func PairDurations(trace []Record, start, end EventID) map[int]sim.Duration {
	open := map[int]sim.Time{}
	total := map[int]sim.Duration{}
	for _, r := range trace {
		switch r.Event {
		case start:
			open[r.CE] = r.At
		case end:
			if t, ok := open[r.CE]; ok {
				total[r.CE] += r.At - t
				delete(open, r.CE)
			}
		}
	}
	return total
}
