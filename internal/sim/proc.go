//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
)

// ErrAborted is the panic value delivered inside a process when the
// kernel shuts it down via Kernel.Shutdown. Process bodies normally
// never observe it: the process wrapper recovers it.
var ErrAborted = errors.New("sim: process aborted")

type procState int

const (
	stateNew       procState = iota // spawned, start event pending
	stateRunning                    // currently executing
	stateScheduled                  // wake event pending
	stateBlocked                    // waiting on a condition/resource
	stateDone                       // body returned
)

// Proc is a simulation process: a coroutine whose body runs in virtual
// time. A process advances the clock by calling Hold and synchronizes
// with other processes through Resource and Cond. All Proc methods
// must be called from the process's own body.
type Proc struct {
	k       *Kernel
	id      int
	name    string
	state   procState
	aborted bool

	// The body runs as an iter.Pull coroutine: next switches into it
	// until it suspends or returns, suspend (the coroutine's yield)
	// switches back out, and stop finishes a coroutine that will
	// never be resumed again.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool

	// waitOn is the primitive the process is currently blocked in, and
	// waitKind its diagnostic prefix ("cond:" or "lock:"). WaitingOn
	// joins them only when a diagnostic reads them, so blocking
	// allocates nothing.
	waitKind string
	waitOn   interface{ Name() string }

	// chainNext is the step function of the chain the process is
	// parked on, and chainLink the callback, bound once, that plays
	// one link of it (see Chain).
	chainNext func() Duration
	chainLink func()
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. The name is used in diagnostics only.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:     k,
		id:    len(k.procs),
		name:  name,
		state: stateNew,
	}
	k.procs = append(k.procs, p)
	k.live++
	p.next, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		defer func() {
			r := recover()
			p.state = stateDone
			k.live--
			if r != nil && r != ErrAborted && k.stop == nil {
				k.stop = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}()
		if !p.aborted {
			fn(p)
		}
	})
	p.state = stateScheduled
	k.scheduleProc(k.now, p)
	k.armWatchdog()
	return p
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// ID returns the process's kernel-assigned id (spawn order).
func (p *Proc) ID() int { return p.id }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.state == stateDone }

// Aborted reports whether the process was terminated via Kernel.Abort
// or Kernel.Shutdown.
func (p *Proc) Aborted() bool { return p.aborted }

// WaitingOn returns the diagnostic name of the primitive the process
// is currently blocked in (empty if not blocked).
func (p *Proc) WaitingOn() string {
	if p.state != stateBlocked || p.waitOn == nil {
		return ""
	}
	return p.waitKind + p.waitOn.Name()
}

// blockOn parks the process like block, recording what it waits on for
// deadlock diagnostics: the primitive on, named kind+on.Name().
func (p *Proc) blockOn(kind string, on interface{ Name() string }) {
	p.waitKind, p.waitOn = kind, on
	p.block()
	p.waitKind, p.waitOn = "", nil
}

// checkRunning panics unless p is the currently executing process.
func (p *Proc) checkRunning(op string) {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: %s called on %q from outside the process", op, p.name))
	}
}

// Hold advances the process d cycles of virtual time. Other events and
// processes run in the meantime. Hold(0) is a no-op that does not
// yield. When the process's own wake would be the next event
// dispatched, the kernel fires it in place and Hold returns without a
// coroutine switch; otherwise the wake is scheduled and the process
// yields to the dispatch loop.
func (p *Proc) Hold(d Duration) {
	p.checkRunning("Hold")
	if d < 0 {
		panic(fmt.Sprintf("sim: %q Hold(%d): negative duration", p.name, d))
	}
	if d == 0 {
		return
	}
	at := p.k.now + d
	if p.k.holdInPlace(p, at) {
		return
	}
	p.state = stateScheduled
	p.k.scheduleProc(at, p)
	p.yield()
}

// Chain plays a run of steps that cannot block as a chain of event
// callbacks instead of process wakes. next ends the step in progress,
// if any, starts the following one and returns its duration; it
// returns 0 when no step is left or the next one needs the process
// (it may block, or it reads what only the process may). Chain calls
// next at once. Each step that takes time ends in one event, at the
// time and sequence point where Hold would have scheduled the
// process's wake: fired in place when it is the next event (see
// holdInPlace), otherwise as a callback scheduled while the process
// parks. That callback calls next from the dispatch loop, and the one
// that gets 0 resumes the process inside its own event. So the process
// parks at most once per chain, and EventsFired, event order and every
// clock reading are those of the same steps run as Holds. A parked
// process counts as runnable for the watchdog. A process aborted while
// parked is resumed by the next callback before it calls next, and
// unwinds with ErrAborted as it would out of Hold.
func (p *Proc) Chain(next func() Duration) {
	p.checkRunning("Chain")
	k := p.k
	for {
		d := next()
		if d <= 0 {
			return
		}
		at := k.now + d
		if k.holdInPlace(p, at) {
			continue
		}
		if p.chainLink == nil {
			p.chainLink = p.link
		}
		p.chainNext = next
		p.state = stateScheduled
		k.Schedule(at, p.chainLink)
		p.yield()
		return
	}
}

// link plays one link of the chain p is parked on (see Chain).
func (p *Proc) link() {
	k := p.k
	if !p.aborted {
		k.lastProgress = k.now
		if d := p.chainNext(); d > 0 {
			k.Schedule(k.now+d, p.chainLink)
			return
		}
	}
	k.resume(p)
}

// HoldUntil advances the process to absolute time t (no-op if t is not
// in the future). Like Hold and Yield it must be called from the
// process's own body, even when it would not advance time.
func (p *Proc) HoldUntil(t Time) {
	p.checkRunning("HoldUntil")
	if t > p.k.now {
		p.Hold(t - p.k.now)
	}
}

// Yield gives other processes and events scheduled at the current time
// a chance to run before p continues.
func (p *Proc) Yield() {
	p.checkRunning("Yield")
	p.state = stateScheduled
	p.k.scheduleProc(p.k.now, p)
	p.yield()
}

// block parks the process with no wake event scheduled. Something else
// (a Cond signal, a Resource grant) must call Kernel.wake later.
func (p *Proc) block() {
	p.checkRunning("block")
	p.state = stateBlocked
	p.yield()
}

// yield suspends the coroutine, handing control back to the dispatch
// loop, until the process is resumed. On resume after an abort, or
// when the coroutine is being stopped, it panics with ErrAborted so
// that the process unwinds through whatever primitive it was sleeping
// in.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) || p.aborted {
		panic(ErrAborted)
	}
}
