package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRunAllErrScenarios is the table-driven check over the kernel's
// abnormal-termination paths: queue-exhaustion deadlock, watchdog
// deadlock under a self-rescheduling event, and the cycle budget. Each
// scenario builds a kernel, runs it to completion with RunAllErr, and
// matches the returned error against a sentinel plus diagnostic
// substrings.
func TestRunAllErrScenarios(t *testing.T) {
	// tick installs a self-rescheduling event, the shape the OS clock
	// and the statfx sampler have in the full simulator: the event
	// queue never drains, so only the watchdog can diagnose a wedged
	// run.
	var tick func(k *Kernel, every Duration)
	tick = func(k *Kernel, every Duration) {
		k.After(every, func() { tick(k, every) })
	}

	cases := []struct {
		name     string
		build    func(k *Kernel)
		sentinel error // nil: expect success
		contains []string
	}{
		{
			name: "clean run",
			build: func(k *Kernel) {
				k.Spawn("worker", func(p *Proc) { p.Hold(100) })
			},
		},
		{
			name: "queue exhausted with blocked procs",
			build: func(k *Kernel) {
				c := NewCond(k, "never")
				r := NewLock(k, "held")
				k.Spawn("holder", func(p *Proc) {
					r.Acquire(p)
					c.Wait(p) // parks forever holding the lock
				})
				k.Spawn("waiter", func(p *Proc) {
					p.Hold(10)
					r.Acquire(p)
				})
			},
			sentinel: ErrDeadlock,
			contains: []string{
				"2 live process(es)", "2 blocked",
				"holder waits on cond:never",
				"waiter waits on lock:held",
			},
		},
		{
			name: "watchdog trips despite live tick events",
			build: func(k *Kernel) {
				tick(k, 500)
				c := NewCond(k, "wedged")
				k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
				k.SetWatchdog(2_000)
			},
			sentinel: ErrDeadlock,
			contains: []string{"stuck waits on cond:wedged"},
		},
		{
			name: "watchdog ignores a long hold",
			build: func(k *Kernel) {
				k.Spawn("sleeper", func(p *Proc) { p.Hold(1_000_000) })
				k.SetWatchdog(1_000)
			},
		},
		{
			name: "watchdog ignores blocked proc with a live partner",
			build: func(k *Kernel) {
				c := NewCond(k, "handoff")
				k.Spawn("consumer", func(p *Proc) { c.Wait(p) })
				k.Spawn("producer", func(p *Proc) {
					p.Hold(50_000) // longer than the watchdog interval
					c.Signal()
				})
				k.SetWatchdog(1_000)
			},
		},
		{
			name: "cycle budget stops an endless run",
			build: func(k *Kernel) {
				tick(k, 100)
				k.SetMaxCycles(5_000)
			},
			sentinel: ErrCycleBudget,
			contains: []string{"cycle budget 5000 exhausted"},
		},
		{
			name: "budget not hit when run finishes first",
			build: func(k *Kernel) {
				k.Spawn("quick", func(p *Proc) { p.Hold(10) })
				k.SetMaxCycles(1_000_000)
			},
		},
		{
			name: "process panic reported as error",
			build: func(k *Kernel) {
				k.Spawn("bomb", func(p *Proc) {
					p.Hold(5)
					panic("kaboom")
				})
			},
			sentinel: nil, // matched by substring only
			contains: []string{`process "bomb" panicked: kaboom`},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			tc.build(k)
			_, err := k.RunAllErr()
			if tc.sentinel == nil && len(tc.contains) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error, got nil")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			for _, want := range tc.contains {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q missing %q", err, want)
				}
			}
			// The kernel must be reclaimable after any abnormal stop.
			k.Shutdown()
			if k.LiveProcs() != 0 {
				t.Fatalf("live procs after Shutdown = %d", k.LiveProcs())
			}
		})
	}
}

func TestDeadlockErrorFields(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "gate")
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) { c.Wait(p) })
	}
	_, err := k.RunAllErr()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not *DeadlockError", err)
	}
	if de.Live != 3 || len(de.Blocked) != 3 {
		t.Fatalf("Live=%d Blocked=%d, want 3/3", de.Live, len(de.Blocked))
	}
	for _, b := range de.Blocked {
		if b.Name != "w" || b.WaitingOn != "cond:gate" {
			t.Fatalf("blocked entry %+v", b)
		}
	}
	k.Shutdown()
}

func TestDeadlockErrorTruncatesLongLists(t *testing.T) {
	e := &DeadlockError{At: 7, Live: 12}
	for i := 0; i < 12; i++ {
		e.Blocked = append(e.Blocked, BlockedProc{Name: "p"})
	}
	msg := e.Error()
	if !strings.Contains(msg, "and 4 more") {
		t.Fatalf("long blocked list not truncated: %q", msg)
	}
	if !strings.Contains(msg, "p waits on unknown") {
		t.Fatalf("empty WaitingOn not rendered as unknown: %q", msg)
	}
}

// TestDeadlockErrorWaiterSets: the grouped view covers the whole
// blocked set (unlike the per-process listing, capped at 8) and the
// error string names every multi-waiter primitive with its full
// waiter list — the diagnosable-from-the-string-alone contract the
// page-fault cond relies on.
func TestDeadlockErrorWaiterSets(t *testing.T) {
	e := &DeadlockError{At: 7, Live: 12}
	for i := 0; i < 9; i++ {
		e.Blocked = append(e.Blocked, BlockedProc{
			Name: fmt.Sprintf("w%d", i), WaitingOn: "cond:pgflt:data.c0.p0(owner=ce0)"})
	}
	e.Blocked = append(e.Blocked,
		BlockedProc{Name: "holder", WaitingOn: "lock:mutex"},
		BlockedProc{Name: "lost"}, // empty WaitingOn groups as unknown
		BlockedProc{Name: "spinner", WaitingOn: "lock:mutex"},
	)
	sets := e.WaiterSets()
	if len(sets) != 3 {
		t.Fatalf("got %d waiter sets, want 3: %+v", len(sets), sets)
	}
	// First-appearance order, whole blocked set covered.
	if sets[0].Primitive != "cond:pgflt:data.c0.p0(owner=ce0)" || len(sets[0].Waiters) != 9 {
		t.Fatalf("pgflt set wrong: %+v", sets[0])
	}
	if sets[1].Primitive != "lock:mutex" || len(sets[1].Waiters) != 2 ||
		sets[1].Waiters[0] != "holder" || sets[1].Waiters[1] != "spinner" {
		t.Fatalf("lock set wrong: %+v", sets[1])
	}
	if sets[2].Primitive != "unknown" || len(sets[2].Waiters) != 1 {
		t.Fatalf("unknown set wrong: %+v", sets[2])
	}
	msg := e.Error()
	// The 9th pgflt waiter is past the per-process cap but must still
	// appear in the grouped line.
	if !strings.Contains(msg, "and 4 more") {
		t.Fatalf("per-process listing not capped: %q", msg)
	}
	if !strings.Contains(msg, "9 waiters on cond:pgflt:data.c0.p0(owner=ce0): w0, w1, w2, w3, w4, w5, w6, w7, w8") {
		t.Fatalf("grouped pgflt waiters missing from message: %q", msg)
	}
	if !strings.Contains(msg, "2 waiters on lock:mutex: holder, spinner") {
		t.Fatalf("grouped lock waiters missing from message: %q", msg)
	}
	// Singleton sets stay out of the grouped suffix.
	if strings.Contains(msg, "1 waiters on") {
		t.Fatalf("singleton waiter set rendered: %q", msg)
	}
}

func TestCycleBudgetErrorFields(t *testing.T) {
	k := NewKernel(1)
	k.SetMaxCycles(50)
	k.Spawn("p", func(p *Proc) {
		for {
			p.Hold(20)
		}
	})
	_, err := k.RunAllErr()
	var ce *CycleBudgetError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CycleBudgetError", err)
	}
	if ce.Budget != 50 {
		t.Fatalf("Budget = %d, want 50", ce.Budget)
	}
	if ce.Live != 1 {
		t.Fatalf("Live = %d, want 1", ce.Live)
	}
	k.Shutdown()
}

// TestCycleBudgetSparesFinishedRun: a run whose processes all finish
// within the budget completes with no error, although the watchdog's
// next check lies beyond the budget.
func TestCycleBudgetSparesFinishedRun(t *testing.T) {
	k := NewKernel(1)
	k.SetWatchdog(1_000)
	k.SetMaxCycles(500)
	k.Spawn("p", func(p *Proc) { p.Hold(100) })
	if _, err := k.RunAllErr(); err != nil {
		t.Fatalf("RunAllErr = %v, want nil: every process finished at cycle 100", err)
	}
	if k.Now() != 100 || k.LiveProcs() != 0 {
		t.Fatalf("stopped at cycle %d with %d live, want cycle 100 with none", k.Now(), k.LiveProcs())
	}
}

// TestAbortBlockedProcRunsDeferred is the fail-stop contract: aborting
// a blocked process unwinds it with ErrAborted so its deferred
// cleanups (here, a lock release) run, and the rest of the simulation
// proceeds unharmed.
func TestAbortBlockedProcRunsDeferred(t *testing.T) {
	k := NewKernel(1)
	lock := NewLock(k, "l")
	gate := NewCond(k, "gate")
	released := false
	victim := k.Spawn("victim", func(p *Proc) {
		lock.Acquire(p)
		defer func() {
			released = true
			lock.Release()
		}()
		gate.Wait(p) // parks forever; only Abort can end this
	})
	survivorDone := false
	k.Spawn("survivor", func(p *Proc) {
		p.Hold(10)
		lock.Acquire(p)
		survivorDone = true
		lock.Release()
	})
	k.Schedule(5, func() { k.Abort(victim) })
	if _, err := k.RunAllErr(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if !released {
		t.Fatal("victim's deferred lock release did not run")
	}
	if !survivorDone {
		t.Fatal("survivor never acquired the lock after the abort")
	}
	if !victim.Aborted() || !victim.Done() {
		t.Fatalf("victim aborted=%v done=%v, want true/true", victim.Aborted(), victim.Done())
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

func TestAbortScheduledProc(t *testing.T) {
	k := NewKernel(1)
	reached := false
	victim := k.Spawn("victim", func(p *Proc) {
		p.Hold(100)
		reached = true
	})
	k.Schedule(50, func() { k.Abort(victim) }) // victim is mid-Hold: stateScheduled
	if _, err := k.RunAllErr(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if reached {
		t.Fatal("aborted process ran past its Hold")
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

func TestAbortIsIdempotent(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "never")
	victim := k.Spawn("victim", func(p *Proc) { c.Wait(p) })
	k.Schedule(5, func() {
		k.Abort(victim)
		k.Abort(victim) // second abort of the same proc: no-op
	})
	if _, err := k.RunAllErr(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	k.Abort(victim) // abort after done: no-op
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

// TestSignalSkipsAbortedWaiter: a signal must never be consumed by a
// dead waiter — it passes to the first live one.
func TestSignalSkipsAbortedWaiter(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "c")
	var first *Proc
	firstWoke, secondWoke := false, false
	first = k.Spawn("first", func(p *Proc) {
		c.Wait(p)
		firstWoke = true
	})
	k.Spawn("second", func(p *Proc) {
		p.Hold(1) // queue behind first
		c.Wait(p)
		secondWoke = true
	})
	k.Schedule(10, func() { k.Abort(first) })
	k.Schedule(20, func() {
		if !c.Signal() {
			t.Error("Signal found no live waiter")
		}
	})
	if _, err := k.RunAllErr(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if firstWoke {
		t.Fatal("aborted waiter consumed the signal")
	}
	if !secondWoke {
		t.Fatal("live waiter did not receive the signal")
	}
}

func TestBroadcastSkipsAbortedWaiter(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "c")
	var dead *Proc
	woken := 0
	dead = k.Spawn("dead", func(p *Proc) { c.Wait(p); woken++ })
	k.Spawn("live1", func(p *Proc) { c.Wait(p); woken++ })
	k.Spawn("live2", func(p *Proc) { c.Wait(p); woken++ })
	k.Schedule(10, func() { k.Abort(dead) })
	k.Schedule(20, func() {
		if n := c.Broadcast(); n != 2 {
			t.Errorf("Broadcast woke %d, want 2", n)
		}
	})
	if _, err := k.RunAllErr(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if woken != 2 {
		t.Fatalf("woken = %d, want 2", woken)
	}
}

// TestReleaseSkipsAbortedWaiter: a released unit is handed to the
// first live queued waiter, never to a dead one (which would leak the
// unit forever).
func TestReleaseSkipsAbortedWaiter(t *testing.T) {
	k := NewKernel(1)
	lock := NewLock(k, "l")
	var doomed *Proc
	doomedGot, thirdGot := false, false
	k.Spawn("holder", func(p *Proc) {
		lock.Acquire(p)
		p.Hold(100)
		lock.Release()
	})
	doomed = k.Spawn("doomed", func(p *Proc) {
		p.Hold(1)
		lock.Acquire(p)
		doomedGot = true
		lock.Release()
	})
	k.Spawn("third", func(p *Proc) {
		p.Hold(2)
		lock.Acquire(p)
		thirdGot = true
		lock.Release()
	})
	k.Schedule(50, func() { k.Abort(doomed) }) // doomed is queued behind holder
	if _, err := k.RunAllErr(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if doomedGot {
		t.Fatal("aborted waiter acquired the lock")
	}
	if !thirdGot {
		t.Fatal("live waiter behind the aborted one never got the lock")
	}
	if lock.InUse() != 0 {
		t.Fatalf("lock units leaked: inUse = %d", lock.InUse())
	}
}

// TestShutdownMixedStates: Shutdown must reclaim processes in every
// live state at once — blocked on a cond, blocked on a lock queue, and
// scheduled mid-Hold — running each one's deferred cleanup.
func TestShutdownMixedStates(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "never")
	lock := NewLock(k, "l")
	cleanups := 0
	cleanup := func() {
		cleanups++
		if r := recover(); r != nil {
			panic(r) // keep the abort unwinding
		}
	}
	k.Spawn("blocked-cond", func(p *Proc) {
		defer cleanup()
		c.Wait(p)
	})
	k.Spawn("lock-holder", func(p *Proc) {
		defer cleanup()
		lock.Acquire(p)
		c.Wait(p)
	})
	k.Spawn("blocked-lock", func(p *Proc) {
		defer cleanup()
		p.Hold(1)
		lock.Acquire(p)
	})
	k.Spawn("mid-hold", func(p *Proc) {
		defer cleanup()
		p.Hold(1_000_000)
	})
	k.Run(100) // everyone is parked in their steady state now
	if k.LiveProcs() != 4 {
		t.Fatalf("live procs = %d, want 4", k.LiveProcs())
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs after Shutdown = %d, want 0", k.LiveProcs())
	}
	if cleanups != 4 {
		t.Fatalf("deferred cleanups ran %d times, want 4", cleanups)
	}
}

func TestWaitingOnDiagnostics(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "report")
	lock := NewLock(k, "mutex")
	var condWaiter, lockWaiter *Proc
	condWaiter = k.Spawn("cw", func(p *Proc) { c.Wait(p) })
	k.Spawn("holder", func(p *Proc) {
		lock.Acquire(p)
		c.Wait(p)
	})
	lockWaiter = k.Spawn("lw", func(p *Proc) {
		p.Hold(1)
		lock.Acquire(p)
	})
	k.Run(100)
	if got := condWaiter.WaitingOn(); got != "cond:report" {
		t.Fatalf("cond waiter WaitingOn = %q", got)
	}
	if got := lockWaiter.WaitingOn(); got != "lock:mutex" {
		t.Fatalf("lock waiter WaitingOn = %q", got)
	}
	k.Shutdown()
	if got := condWaiter.WaitingOn(); got != "" {
		t.Fatalf("WaitingOn after shutdown = %q, want empty", got)
	}
}
