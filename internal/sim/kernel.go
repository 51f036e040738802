// Package sim implements a deterministic discrete-event simulation
// kernel in virtual time.
//
// The kernel drives coroutine processes (see Proc) one at a time, so a
// simulation is fully deterministic: event ordering is total (time,
// then insertion sequence), and exactly one process body runs at once.
//
// Every process body is an iter.Pull coroutine, and RunErr is the one
// dispatch loop. It runs on the caller's goroutine and resumes a
// process by switching into its coroutine, which switches back when
// the process yields: two coroutine switches per resume, with no Go
// scheduler, lock or cross-CPU wake-up on the path. Two paths advance
// a process with fewer. A Hold whose own wake is the next event the
// loop would dispatch fires that wake in place (see holdInPlace) and
// the process simply continues, with no switch at all. And a run of
// steps that cannot block, such as a loop body's compute and memory
// stalls, plays as a callback chain (see Proc.Chain): each step ends
// in a callback event at the time its Hold's wake would fire, and the
// process parks once and is resumed by the chain's last link, so the
// chain costs one resume however many steps it has. Either way the
// events, their order and the clock are those of plain Holds.
// Callbacks, stop conditions and the interrupt check all run in that
// loop, on the caller's goroutine. Coroutine switches never enter the
// Go scheduler, so the interrupt check is the loop's one outward call:
// at each check the loop first yields the thread to other goroutines
// (see SetInterrupt). A run with no check installed cannot be stopped
// from outside, so it keeps its thread until it returns.
//
// Virtual time is counted in integer cycles (Time). The kernel makes
// no reference to wall-clock time, so measurements taken inside a
// simulation are immune to Go runtime effects (GC pauses, scheduler
// jitter) — the property that makes this substrate suitable for
// reproducing a hardware measurement study.
//
// The event core is allocation-free in the steady state: event nodes
// live in a kernel-owned free list and are recycled the moment they
// fire or are canceled, the pending queue is tiered (see below), and
// process wake-ups carry the *Proc directly instead of a per-wake
// closure. Schedule/Hold in a warmed-up simulation therefore performs
// zero heap allocations per operation.
//
// The pending queue has two tiers. Events within a near-horizon window
// of the clock — the dense per-cycle band produced by network port and
// memory module reservations — go into a calendar of fixed-width
// (one-cycle) time buckets with O(1) insert and extract: because the
// window is exactly as wide as the bucket ring, every live bucket holds
// a single fire time, and because insertion sequence numbers grow
// monotonically, appending to a bucket's intrusive list keeps it sorted
// by (time, seq) for free. An occupancy bitmap finds the next busy
// bucket 64 buckets at a time. Far-future events (watchdogs, samplers,
// long holds behind a backlogged port) go into an inlined typed 4-ary
// min-heap (no container/heap interface{} boxing). Dispatch compares
// the heads of both tiers, preserving the exact (time, seq) total
// order of a single queue.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
)

// Time is a point in virtual time, in cycles.
type Time int64

// Duration is a span of virtual time, in cycles. It is the same
// underlying type as Time; the alias exists purely for documentation.
type Duration = Time

// Forever is a time later than any event a simulation will schedule.
const Forever Time = 1<<62 - 1

// calHorizon is the width of the calendar tier's near-horizon window
// in cycles, and equally the number of one-cycle buckets in its ring.
// Must be a power of two. Events scheduled less than calHorizon cycles
// ahead of the clock take the O(1) bucket path; everything further out
// takes the heap.
const calHorizon = 512

// calMask maps a fire time to its bucket index.
const calMask = calHorizon - 1

// Sentinel values of eventNode.pos that mean "not in the heap".
const (
	posFree     = -1 // not queued anywhere (free, fired, or canceled)
	posCalendar = -2 // queued in a calendar bucket
)

// eventNode is a pooled entry of the kernel's pending-event queue. A
// node belongs to its kernel for the kernel's whole lifetime: when the
// event fires or is canceled the node goes back on the free list and
// its generation is bumped, which invalidates every outstanding Event
// handle that still points at it.
type eventNode struct {
	k    *Kernel
	at   Time
	seq  uint64
	gen  uint64
	pos  int32  // heap index, or posCalendar / posFree
	proc *Proc  // wake target (the closure-free hot path), or nil
	fn   func() // callback when proc is nil

	// Intrusive doubly-linked list pointers for the calendar bucket the
	// node sits in while pos == posCalendar.
	next, prev *eventNode
}

// calBucket is one slot of the calendar ring: a FIFO of events sharing
// a single fire time, linked through the nodes themselves.
type calBucket struct {
	head, tail *eventNode
}

// Event is a cancelable handle to a scheduled callback. It is a value
// (returning one performs no allocation) stamped with the node's
// generation: once the event has fired or been canceled the handle
// goes stale and every operation on it is a no-op, even if the kernel
// has recycled the underlying node for a new event. The zero Event is
// valid and permanently stale.
type Event struct {
	n   *eventNode
	gen uint64
	at  Time
}

// Time returns the virtual time at which the event fires (or fired, or
// would have fired had it not been canceled).
func (e Event) Time() Time { return e.at }

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool {
	return e.n != nil && e.n.gen == e.gen && e.n.pos != posFree
}

// Cancel prevents the event from firing. The event is removed from the
// pending queue immediately — a canceled far-future event costs
// nothing until its fire time — and its node is recycled. Canceling an
// event that has already fired or was already canceled is a no-op. It
// reports whether the cancellation took effect.
func (e Event) Cancel() bool {
	n := e.n
	if n == nil || n.gen != e.gen || n.pos == posFree {
		return false
	}
	k := n.k
	if n.pos == posCalendar {
		k.calRemove(n)
	} else {
		k.heapRemove(int(n.pos))
	}
	k.recycle(n)
	return true
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; call NewKernel.
type Kernel struct {
	now  Time
	seq  uint64
	heap []*eventNode // far-future tier: 4-ary min-heap ordered by (at, seq)
	free []*eventNode // recycled nodes, ready for reuse

	// Near-horizon tier: a ring of one-cycle buckets covering
	// [now, now+calHorizon). calCount is the number of events in the
	// ring; calCursor is a lower bound on the earliest live bucket time
	// (no live calendar event fires before it). Bit i of calBusy is set
	// while bucket i holds an event.
	cal       [calHorizon]calBucket
	calBusy   [calHorizon / 64]uint64
	calCount  int
	calCursor Time

	running *Proc
	procs   []*Proc
	live    int // procs spawned and not yet finished
	rng     *rand.Rand

	dispatched uint64 // events fired, for introspection/tests
	switches   uint64 // coroutine resumes (see Switches)

	// until is the horizon of the RunErr in progress. Outside RunErr
	// it is -1, below every event time, so holdInPlace never fires a
	// wake for a process that Shutdown resumes.
	until Time

	// Watchdog / budget state (see SetWatchdog, SetMaxCycles).
	maxCycles     Time
	watchdogEvery Duration
	watchdogArmed bool
	lastProgress  Time // last time any process actually executed

	// stop is the error that ends the RunErr in progress after the
	// current dispatch: a process panic or a watchdog-detected
	// deadlock. The two never happen in the same dispatch.
	stop error

	// External interrupt check (see SetInterrupt).
	interrupt      func() error
	interruptEvery uint64
}

// NewKernel returns a kernel with its virtual clock at zero and a
// deterministic random source seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), until: -1}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. Models must
// use this source (never the global one) so runs are reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsFired returns the number of events dispatched so far.
func (k *Kernel) EventsFired() uint64 { return k.dispatched }

// Switches returns the number of coroutine resumes so far: process
// starts and wakes that switched into a process's coroutine. A wake
// fired in place by Hold (see holdInPlace) and a callback-chain link
// that does not resume its process (see Proc.Chain) count as events
// but not as switches. The count depends on the interrupt cadence
// (see SetInterrupt): a wake due at a check goes through the loop.
func (k *Kernel) Switches() uint64 { return k.switches }

// PendingEvents returns the number of events currently queued (both
// tiers). Since canceled events are removed eagerly, every pending
// event will fire.
func (k *Kernel) PendingEvents() int { return len(k.heap) + k.calCount }

// alloc takes a node from the free list, or mints one on first use.
func (k *Kernel) alloc() *eventNode {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &eventNode{k: k, pos: posFree}
}

// recycle invalidates every outstanding handle to the node and returns
// it to the free list.
func (k *Kernel) recycle(e *eventNode) {
	e.gen++
	e.fn = nil
	e.proc = nil
	e.pos = posFree
	k.free = append(k.free, e)
}

// Schedule registers fn to run at absolute virtual time at. Scheduling
// in the past is an error and panics: the kernel's clock never runs
// backwards.
func (k *Kernel) Schedule(at Time, fn func()) Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, k.now))
	}
	e := k.alloc()
	e.at, e.seq, e.fn = at, k.seq, fn
	k.seq++
	k.push(e)
	return Event{n: e, gen: e.gen, at: at}
}

// scheduleProc registers a wake-up for p at absolute time at. This is
// the closure-free hot path behind Hold, Yield, Spawn, and wake: the
// node carries the *Proc directly and the dispatch loop resumes it
// without any intermediate func value.
func (k *Kernel) scheduleProc(at Time, p *Proc) {
	e := k.alloc()
	e.at, e.seq, e.proc = at, k.seq, p
	k.seq++
	k.push(e)
}

// push routes a freshly-stamped node to its tier: the calendar ring
// when it fires within the near-horizon window, the heap otherwise.
func (k *Kernel) push(e *eventNode) {
	if e.at-k.now < calHorizon {
		k.calPush(e)
	} else {
		k.heapPush(e)
	}
}

// calPush appends the node to its time's bucket. Every live calendar
// event fires within [now, now+calHorizon), so bucket index collisions
// between different fire times are impossible (they would be a full
// window apart), and appending keeps the bucket sorted by seq because
// sequence numbers only grow.
func (k *Kernel) calPush(e *eventNode) {
	i := int(e.at) & calMask
	b := &k.cal[i]
	e.prev = b.tail
	e.next = nil
	if b.tail != nil {
		b.tail.next = e
	} else {
		b.head = e
		k.calBusy[i>>6] |= 1 << (i & 63)
	}
	b.tail = e
	e.pos = posCalendar
	if k.calCount == 0 || e.at < k.calCursor {
		k.calCursor = e.at
	}
	k.calCount++
}

// calRemove unlinks the node from its bucket (cancel, or dispatch of
// the bucket head). Both callers then recycle the node, which marks it
// free.
func (k *Kernel) calRemove(e *eventNode) {
	i := int(e.at) & calMask
	b := &k.cal[i]
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if b.tail = e.prev; e.prev == nil {
		// e was the bucket's only event.
		k.calBusy[i>>6] &^= 1 << (i & 63)
	}
	e.next, e.prev = nil, nil
	k.calCount--
}

// calHead returns the earliest calendar event without removing it, or
// nil when the ring is empty. While the ring holds events, now <=
// calCursor <= the earliest of them: the clock only moves to a time
// peek has seen to be no later than every pending event, and peek
// leaves the cursor on the ring's earliest. So a busy cursor bucket
// holds exactly the events at the cursor's time; calSeek finds the
// earliest when the cursor's bucket is empty.
func (k *Kernel) calHead() *eventNode {
	if e := k.cal[int(k.calCursor)&calMask].head; e != nil {
		return e
	}
	return k.calSeek()
}

// calSeek moves the cursor to the earliest occupied bucket and returns
// its head, or nil when the ring is empty. Every live event fires
// within [calCursor, calCursor+calHorizon), so the earliest is in the
// first occupied bucket at or after the cursor's, in ring order, and
// the occupancy bitmap finds it a word at a time rather than a bucket
// at a time. An insert only pulls the cursor back to a time that is
// guaranteed occupied.
func (k *Kernel) calSeek() *eventNode {
	if k.calCount == 0 {
		return nil
	}
	i := int(k.calCursor) & calMask
	if w := k.calBusy[i>>6] >> (i & 63); w != 0 {
		k.calCursor += Time(bits.TrailingZeros64(w))
		return k.cal[int(k.calCursor)&calMask].head
	}
	// The rest of the ring, word by word from the next one, wrapping
	// round to the low bits of the cursor's own word last.
	base := i &^ 63
	for j := 1; j <= len(k.calBusy); j++ {
		word := (base>>6 + j) % len(k.calBusy)
		if w := k.calBusy[word]; w != 0 {
			b := word<<6 + bits.TrailingZeros64(w)
			k.calCursor += Time((b - i) & calMask)
			return k.cal[b].head
		}
	}
	panic("sim: calendar count and occupancy disagree")
}

// peek returns the earliest pending event across both tiers without
// removing it, preserving the (time, seq) total order a single queue
// would give, or nil when nothing is pending.
func (k *Kernel) peek() *eventNode {
	c := k.calHead()
	if len(k.heap) == 0 {
		return c
	}
	h := k.heap[0]
	if c == nil || less(h, c) {
		return h
	}
	return c
}

// pop removes the given event — necessarily a tier head returned by
// peek — from its tier.
func (k *Kernel) pop(e *eventNode) {
	if e.pos == posCalendar {
		k.calRemove(e)
	} else {
		k.heapRemove(int(e.pos))
	}
}

// After registers fn to run d cycles from now.
func (k *Kernel) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return k.Schedule(k.now+d, fn)
}

// less orders the heap by (time, insertion sequence) — the total event
// order that makes simulations deterministic.
func less(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts a node into the 4-ary min-heap.
func (k *Kernel) heapPush(e *eventNode) {
	k.heap = append(k.heap, e)
	k.siftUp(len(k.heap) - 1)
}

// heapRemove deletes the node at index i, preserving the heap order.
func (k *Kernel) heapRemove(i int) *eventNode {
	h := k.heap
	n := h[i]
	last := len(h) - 1
	moved := h[last]
	h[last] = nil
	k.heap = h[:last]
	if i < last {
		k.heap[i] = moved
		moved.pos = int32(i)
		k.siftDown(i)
		if moved.pos == int32(i) {
			k.siftUp(i)
		}
	}
	n.pos = -1
	return n
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !less(e, p) {
			break
		}
		h[i] = p
		p.pos = int32(i)
		i = parent
	}
	h[i] = e
	e.pos = int32(i)
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
	e := h[i]
	size := len(h)
	for {
		first := i<<2 + 1
		if first >= size {
			break
		}
		best := first
		end := first + 4
		if end > size {
			end = size
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[best]) {
				best = c
			}
		}
		if !less(h[best], e) {
			break
		}
		h[i] = h[best]
		h[i].pos = int32(i)
		i = best
	}
	h[i] = e
	e.pos = int32(i)
}

// Run processes events in time order until the event queue is empty or
// the next event is later than until. It returns the number of events
// fired. Processes left blocked on conditions or resources simply stay
// blocked; use LiveProcs/BlockedProcs to detect them, or Shutdown to
// terminate them. Run panics on a process panic or a watchdog/budget
// stop; RunErr returns those as errors instead.
func (k *Kernel) Run(until Time) uint64 {
	n, err := k.RunErr(until)
	if err != nil {
		panic(err)
	}
	return n
}

// RunErr is Run with error returns instead of panics: a process panic,
// a watchdog-detected deadlock (*DeadlockError), or an exhausted cycle
// budget (*CycleBudgetError) stop the run and are returned. The kernel
// is left at the stopping time; Shutdown can then reclaim any
// remaining processes.
func (k *Kernel) RunErr(until Time) (uint64, error) {
	start := k.dispatched
	defer func(prev Time) { k.until = prev }(k.until)
	k.until = until
	for {
		next := k.peek()
		if next == nil {
			break
		}
		if k.interrupt != nil && k.dispatched%k.interruptEvery == 0 {
			// Yield first: a cancel set meanwhile is seen at once.
			runtime.Gosched()
			if cause := k.interrupt(); cause != nil {
				return k.dispatched - start, &CanceledError{At: k.now, Cause: cause}
			}
		}
		if next.at > until {
			break
		}
		if k.maxCycles > 0 && next.at > k.maxCycles {
			return k.dispatched - start, &CycleBudgetError{Budget: k.maxCycles, Now: k.now, Live: k.live}
		}
		if next.at < k.now {
			panic("sim: event queue time went backwards")
		}
		k.pop(next)
		k.now = next.at
		// Recycle before dispatch: the node is free for reuse by
		// anything the callback schedules, and the generation bump
		// makes the fired event's handles stale exactly as firing
		// used to.
		p, fn := next.proc, next.fn
		k.recycle(next)
		if p != nil {
			k.resume(p)
		} else {
			fn()
		}
		k.dispatched++
		if err := k.stop; err != nil {
			k.stop = nil
			return k.dispatched - start, err
		}
	}
	return k.dispatched - start, nil
}

// holdInPlace fires p's wake at time at in place, as the dispatch loop
// would fire it next, and reports whether it did. It is called by the
// running process p from Hold or Chain instead of scheduling the wake
// (or the chain's link) and switching out of its coroutine only to be
// switched straight back in. It refuses, and the caller takes the loop
// path, unless RunErr is on the stack, p is not aborted, the loop would
// dispatch the wake now rather than stop or pause (the horizon, the
// cycle budget, or an interrupt check due at the next dispatch count),
// and no pending event fires at or before at: an equal-time
// event has a lower sequence number, so it runs first. Firing does
// exactly what the loop does for the wake: it counts the ending event,
// spends the wake's sequence number and moves the clock, so event
// order, EventsFired and every stop are the same either way.
func (k *Kernel) holdInPlace(p *Proc, at Time) bool {
	if p.aborted || at > k.until || (k.maxCycles > 0 && at > k.maxCycles) {
		return false
	}
	n := k.dispatched + 1
	if k.interrupt != nil && n%k.interruptEvery == 0 {
		return false
	}
	if next := k.peek(); next != nil && next.at <= at {
		return false
	}
	k.dispatched = n
	k.seq++
	k.now = at
	k.lastProgress = at
	return true
}

// RunAll runs until no events remain.
func (k *Kernel) RunAll() uint64 { return k.Run(Forever) }

// RunAllErr runs until no events remain, returning errors instead of
// panicking. Unlike RunAll, it additionally diagnoses the terminal
// deadlock: an empty event queue with live processes means those
// processes can never run again, so it returns a *DeadlockError naming
// them rather than a silently truncated result.
func (k *Kernel) RunAllErr() (uint64, error) {
	n, err := k.RunErr(Forever)
	if err == nil && k.live > 0 {
		err = k.deadlockError()
	}
	return n, err
}

// SetMaxCycles sets a virtual-time budget: RunErr stops with
// ErrCycleBudget before dispatching any event later than max. Zero
// disables the budget.
func (k *Kernel) SetMaxCycles(max Time) { k.maxCycles = max }

// SetInterrupt installs an external stop check: RunErr calls check
// before dispatch whenever the dispatched-event count is a multiple of
// every (so once per `every` events — cheap enough to leave enabled on
// the hot path), and a non-nil return stops the run with a
// *CanceledError wrapping it. This is how wall-clock concerns —
// context cancellation, per-job deadlines in a serving process — reach
// a kernel that otherwise only knows virtual time. Just before each
// check RunErr yields its thread to other goroutines (runtime.Gosched),
// so every also bounds how long a run keeps the thread from whoever
// would cancel it. The check never fires mid-event, so a run that is
// not interrupted is byte-identical to one with no check installed
// (only Switches differs: a wake due at a check is not fired in
// place). A nil check disables interruption; a non-nil one needs
// every > 0.
func (k *Kernel) SetInterrupt(every uint64, check func() error) {
	k.interrupt = check
	k.interruptEvery = every
}

// SetWatchdog enables deadlock detection with the given check
// interval: if a full interval passes during which no process executes
// and every live process is blocked (no wake event pending for any of
// them), the run stops with a *DeadlockError. Long Holds do not trip
// the watchdog — a held process has a wake event pending and is not
// blocked. A non-positive interval disables the watchdog.
func (k *Kernel) SetWatchdog(every Duration) {
	k.watchdogEvery = every
	k.armWatchdog()
}

func (k *Kernel) armWatchdog() {
	if k.watchdogEvery <= 0 || k.watchdogArmed {
		return
	}
	k.watchdogArmed = true
	k.After(k.watchdogEvery, func() {
		k.watchdogArmed = false
		if k.live > 0 && k.allLiveBlocked() && k.now-k.lastProgress >= k.watchdogEvery {
			k.stop = k.deadlockError()
			return
		}
		if k.live > 0 {
			k.armWatchdog()
		}
	})
}

// allLiveBlocked reports whether every live process is blocked with no
// wake pending (states new/scheduled/running all count as runnable).
func (k *Kernel) allLiveBlocked() bool {
	if k.live == 0 {
		return false
	}
	for _, p := range k.procs {
		switch p.state {
		case stateNew, stateScheduled, stateRunning:
			return false
		}
	}
	return true
}

// deadlockError builds the diagnostic from the current blocked set.
func (k *Kernel) deadlockError() *DeadlockError {
	e := &DeadlockError{At: k.now, Live: k.live}
	for _, p := range k.BlockedProcs() {
		e.Blocked = append(e.Blocked, BlockedProc{Name: p.Name(), WaitingOn: p.WaitingOn()})
	}
	return e
}

// Idle reports whether no events are pending in either tier. Canceled
// events leave the queue immediately, so an idle kernel holds no dead
// entries.
func (k *Kernel) Idle() bool { return len(k.heap) == 0 && k.calCount == 0 }

// LiveProcs returns the number of spawned processes that have not yet
// finished.
func (k *Kernel) LiveProcs() int { return k.live }

// BlockedProcs returns the processes currently blocked (waiting on a
// condition or resource, with no wake event scheduled).
func (k *Kernel) BlockedProcs() []*Proc {
	var out []*Proc
	for _, p := range k.procs {
		if p.state == stateBlocked {
			out = append(out, p)
		}
	}
	return out
}

// Shutdown aborts every process that is still alive. Each new, blocked
// or scheduled process is resumed with its aborted flag set; the
// blocking primitive it was sleeping in panics with ErrAborted, which
// the process wrapper swallows. Every coroutine is then stopped, so
// after Shutdown returns no process goroutines remain. Shutdown must
// not be called from inside a process.
func (k *Kernel) Shutdown() {
	if k.running != nil {
		panic("sim: Shutdown called from inside a process")
	}
	for _, p := range k.procs {
		if p.state != stateDone {
			p.aborted = true
			k.resume(p)
		}
		p.stop()
	}
	k.procs = k.procs[:0]
}

// wake schedules p to resume at the current time. It is the primitive
// used by resources and conditions to hand control back to a blocked
// process.
func (k *Kernel) wake(p *Proc) {
	if p.state != stateBlocked {
		panic("sim: wake of non-blocked proc " + p.name)
	}
	p.state = stateScheduled
	k.scheduleProc(k.now, p)
}

// resume switches into p's coroutine and returns when p yields or
// finishes.
func (k *Kernel) resume(p *Proc) {
	if p.state == stateDone {
		return
	}
	k.lastProgress = k.now
	k.switches++
	prev := k.running
	k.running = p
	p.state = stateRunning
	p.next()
	k.running = prev
}

// Abort terminates a single process with fail-stop semantics: the
// process unwinds with ErrAborted from whatever primitive it is in
// (its deferred cleanups run), exactly as under Shutdown, but the rest
// of the simulation keeps running. Aborting the currently running
// process panics ErrAborted directly; aborting a finished process is a
// no-op.
func (k *Kernel) Abort(p *Proc) {
	if p.state == stateDone || p.aborted {
		return
	}
	p.aborted = true
	switch p.state {
	case stateRunning:
		panic(ErrAborted)
	case stateBlocked:
		// Wake it now; yield() sees the aborted flag and panics
		// ErrAborted inside the primitive it was sleeping in.
		p.state = stateScheduled
		k.scheduleProc(k.now, p)
	}
	// stateNew / stateScheduled: a start or wake event is already
	// pending; the aborted flag is checked on resume.
}
