package sim

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestShutdownLeavesNoGoroutines: behind every process coroutine is a
// goroutine, and a coroutine that is never finished leaks it. After a
// run to completion, and after Shutdown however else a run ended, the
// goroutine count must return to its baseline.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"run to completion", func(t *testing.T) {
			k := NewKernel(1)
			for i := 0; i < 4; i++ {
				k.Spawn("worker", func(p *Proc) {
					for j := 0; j < 100; j++ {
						p.Hold(1)
					}
				})
			}
			if _, err := k.RunAllErr(); err != nil {
				t.Fatalf("RunAllErr: %v", err)
			}
		}},
		{"shutdown with new, scheduled and blocked processes", func(t *testing.T) {
			k := NewKernel(1)
			c := NewCond(k, "never")
			k.Spawn("blocked", func(p *Proc) { c.Wait(p) })
			k.Spawn("scheduled", func(p *Proc) { p.Hold(1_000_000) })
			// A cleanup that yields suspends the coroutine again
			// while it unwinds; Shutdown must still finish it.
			k.Spawn("yields-in-cleanup", func(p *Proc) {
				defer p.Yield()
				c.Wait(p)
			})
			k.Run(10)
			k.Spawn("new", func(p *Proc) { t.Error("a process spawned after the run started") })
			if k.LiveProcs() != 4 {
				t.Fatalf("live procs = %d, want 4", k.LiveProcs())
			}
			k.Shutdown()
			if k.LiveProcs() != 0 {
				t.Fatalf("live procs after Shutdown = %d, want 0", k.LiveProcs())
			}
		}},
		{"process panic, then shutdown", func(t *testing.T) {
			k := NewKernel(1)
			c := NewCond(k, "never")
			pingPong(k)
			k.Spawn("blocked", func(p *Proc) { c.Wait(p) })
			k.Spawn("bad", func(p *Proc) {
				p.Hold(50)
				panic("proc boom")
			})
			if _, err := k.RunErr(100); err == nil {
				t.Fatal("RunErr returned no error for a process panic")
			}
			k.Shutdown()
		}},
		{"shutdown with a process parked on a callback chain", func(t *testing.T) {
			k := NewKernel(1)
			pingPong(k)
			links := 0
			k.Spawn("chained", func(p *Proc) {
				p.Chain(func() Duration { links++; return 10 })
				t.Error("an endless chain resumed its process")
			})
			k.Run(100)
			if links < 5 {
				t.Fatalf("chain played %d links by t=100, want >= 5", links)
			}
			k.Shutdown()
			if k.LiveProcs() != 0 {
				t.Fatalf("live procs after Shutdown = %d, want 0", k.LiveProcs())
			}
		}},
		{"interrupt, then shutdown", func(t *testing.T) {
			k := NewKernel(1)
			pingPong(k)
			k.SetInterrupt(8, func() error {
				if k.Now() >= 50 {
					return errTestCause
				}
				return nil
			})
			if _, err := k.RunErr(1 << 20); !errors.Is(err, ErrCanceled) {
				t.Fatalf("RunErr = %v, want ErrCanceled", err)
			}
			k.Shutdown()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c.run(t)
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d after the run, baseline %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestRunErrLetsOtherGoroutinesRun: coroutine switches never enter the
// Go scheduler, so a run that can be interrupted must yield its thread
// at its interrupt check. On one P, with a check every 64 events that
// never fires, a goroutine started just before the run has to get the
// CPU within a few checks, not only when async preemption fires.
func TestRunErrLetsOtherGoroutinesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const every = 64
	k := NewKernel(1)
	k.SetInterrupt(every, func() error { return nil })
	var flag atomic.Bool
	var seenAt uint64
	for i := 0; i < 2; i++ {
		k.Spawn("ping", func(p *Proc) {
			for !flag.Load() {
				p.Hold(1)
			}
			if seenAt == 0 {
				seenAt = k.EventsFired()
			}
		})
	}
	var tick func()
	tick = func() {
		if !flag.Load() {
			k.After(3, tick)
		}
	}
	k.After(3, tick)
	go flag.Store(true)
	if _, err := k.RunErr(1 << 20); err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	if seenAt == 0 || seenAt > 4*every {
		t.Fatalf("a process saw the other goroutine's flag after %d events, want within %d", seenAt, 4*every)
	}
}

// TestLoneHoldFiresInPlace: a process alone in the kernel is always
// the next event after its own Hold, so after its start it never
// switches, except where the loop must run anyway to call the
// interrupt check.
func TestLoneHoldFiresInPlace(t *testing.T) {
	const every = 64
	for _, interrupt := range []bool{false, true} {
		for _, n := range []int{every - 1, 1000} {
			k := NewKernel(1)
			if interrupt {
				k.SetInterrupt(every, func() error { return nil })
			}
			k.Spawn("lone", func(p *Proc) {
				for i := 0; i < n; i++ {
					p.Hold(1)
				}
			})
			fired := k.RunAll()
			if fired != uint64(n+1) || k.EventsFired() != fired || k.Now() != Time(n) {
				t.Fatalf("n=%d: fired %d (kernel %d) at %d, want %d at %d", n, fired, k.EventsFired(), k.Now(), n+1, n)
			}
			// One switch starts the process; with a check installed,
			// every 64th Hold goes back through the loop to meet it.
			want := uint64(1)
			if interrupt {
				want += uint64(n / every)
			}
			if k.Switches() != want {
				t.Fatalf("n=%d, interrupt %v: %d switches, want %d", n, interrupt, k.Switches(), want)
			}
		}
	}
}

// TestInPlaceInterruptStopsAtSameEvent: the interrupt check runs at
// every 100th dispatch count whether or not the wakes before it fired
// in place. A lone process wakes at t = i for event i (the start is
// event 0 at t = 0); the check's third call, at count 200, stops the
// run after events 0..199, at t = 199.
func TestInPlaceInterruptStopsAtSameEvent(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("lone", func(p *Proc) {
		for {
			p.Hold(1)
		}
	})
	calls := 0
	k.SetInterrupt(100, func() error {
		if calls++; calls == 3 {
			return errTestCause
		}
		return nil
	})
	n, err := k.RunErr(Forever)
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Cause != errTestCause {
		t.Fatalf("RunErr = %v, want a *CanceledError carrying the cause", err)
	}
	if ce.At != 199 || n != 200 || k.EventsFired() != 200 || k.Now() != 199 {
		t.Fatalf("canceled at %d after %d events (kernel %d, now %d), want 199 after 200", ce.At, n, k.EventsFired(), k.Now())
	}
	k.Shutdown()
}

// TestInPlaceHoldStopsAtHorizon: Run(until) never lets a process run
// past until, however many of its wakes fire in place, and a later
// Run picks up where it left off.
func TestInPlaceHoldStopsAtHorizon(t *testing.T) {
	k := NewKernel(1)
	var last Time
	k.Spawn("lone", func(p *Proc) {
		for {
			p.Hold(7)
			last = p.Now()
		}
	})
	for _, until := range []Time{50, 51, 300} {
		k.Run(until)
		if want := until / 7 * 7; last != want || k.Now() != want {
			t.Fatalf("Run(%d): process last ran at %d, clock %d, want %d", until, last, k.Now(), want)
		}
	}
	if k.EventsFired() != 1+300/7 {
		t.Fatalf("fired %d events, want %d", k.EventsFired(), 1+300/7)
	}
	k.Shutdown()
}

// TestInPlaceHoldRespectsCycleBudget: the budget stops the run before
// the first wake later than it, at the same Now as the loop path.
func TestInPlaceHoldRespectsCycleBudget(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("lone", func(p *Proc) {
		for {
			p.Hold(7)
		}
	})
	k.SetMaxCycles(50)
	_, err := k.RunErr(Forever)
	var be *CycleBudgetError
	if !errors.As(err, &be) || be.Budget != 50 || be.Now != 49 || be.Live != 1 {
		t.Fatalf("RunErr = %#v, want a *CycleBudgetError{Budget: 50, Now: 49, Live: 1}", err)
	}
	if k.Now() != 49 || k.EventsFired() != 8 {
		t.Fatalf("stopped at %d after %d events, want 49 after 8", k.Now(), k.EventsFired())
	}
	k.Shutdown()
}

// TestInPlaceHoldCountsAsProgress: a wake fired in place is progress
// for the watchdog, exactly as a resume is. The process's Hold(1000)
// ties with the first watchdog tick, so it resumes through the loop at
// 1000; its Hold(50) then fires in place and it blocks at 1050. The
// tick at 2000 sees only 950 idle cycles, so the deadlock is reported
// at 3000.
func TestInPlaceHoldCountsAsProgress(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "never")
	k.SetWatchdog(1000)
	k.Spawn("sleeper", func(p *Proc) {
		p.Hold(1000)
		p.Hold(50)
		c.Wait(p)
	})
	_, err := k.RunErr(Forever)
	var de *DeadlockError
	if !errors.As(err, &de) || de.At != 3000 {
		t.Fatalf("RunErr = %v, want a *DeadlockError at 3000", err)
	}
	k.Shutdown()
}

// TestAbortedHoldStillUnwinds: a process that recovers from its own
// abort and holds again must not have that wake fired in place; the
// Hold unwinds with ErrAborted as on the loop path.
func TestAbortedHoldStillUnwinds(t *testing.T) {
	k := NewKernel(1)
	var second any
	reached := false
	k.Spawn("victim", func(p *Proc) {
		defer func() {
			recover() // the first ErrAborted, from Abort itself
			defer func() { second = recover() }()
			p.Hold(1)
			reached = true
		}()
		p.Hold(1)
		k.Abort(p)
	})
	if _, err := k.RunErr(Forever); err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	if second != ErrAborted || reached {
		t.Fatalf("Hold after abort recovered %v (returned: %v), want ErrAborted", second, reached)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

// chainTrace runs a process that takes steps of the given lengths
// beside pingPong traffic and a callback at every step boundary, as
// Holds or as one Chain, and returns what every callback saw (its time
// and the events fired before it), the final clock, the events fired
// and the switches made.
func chainTrace(steps []Duration, chain bool) (seen []Time, now Time, fired, switches uint64) {
	k := NewKernel(1)
	pingPong(k)
	var at Time
	for _, d := range steps {
		at += d
		k.Schedule(at, func() { seen = append(seen, k.Now(), Time(k.EventsFired())) })
	}
	k.Spawn("stepper", func(p *Proc) {
		if !chain {
			for _, d := range steps {
				p.Hold(d)
			}
		} else {
			i := 0
			p.Chain(func() Duration {
				if i == len(steps) {
					return 0
				}
				i++
				return steps[i-1]
			})
		}
		seen = append(seen, -p.Now(), Time(k.EventsFired()))
	})
	k.Run(at + 5)
	k.Shutdown()
	return seen, k.Now(), k.EventsFired(), k.Switches()
}

// TestChainMatchesHolds: a chain of steps fires the same events at the
// same times and in the same order as the same steps taken as Holds,
// and resumes its process at the same point, with fewer switches.
func TestChainMatchesHolds(t *testing.T) {
	steps := []Duration{3, 1, 7, 2, 2, 9}
	hSeen, hNow, hFired, hSwitches := chainTrace(steps, false)
	cSeen, cNow, cFired, cSwitches := chainTrace(steps, true)
	if !reflect.DeepEqual(hSeen, cSeen) || hNow != cNow || hFired != cFired {
		t.Fatalf("chain saw %v, now %d, %d events; holds saw %v, now %d, %d events", cSeen, cNow, cFired, hSeen, hNow, hFired)
	}
	if cSwitches+uint64(len(steps))-1 != hSwitches {
		t.Fatalf("chain made %d switches, holds %d: want %d fewer", cSwitches, hSwitches, len(steps)-1)
	}
}

// TestChainFiresInPlace: a lone process's chain fires its links in
// place, as lone Holds do, so it never parks.
func TestChainFiresInPlace(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Spawn("lone", func(p *Proc) {
		p.Chain(func() Duration {
			if n++; n > 10 {
				return 0
			}
			return 5
		})
	})
	if fired := k.RunAll(); fired != 11 || k.Now() != 50 || k.Switches() != 1 {
		t.Fatalf("fired %d at %d with %d switches, want 11 at 50 with 1", fired, k.Now(), k.Switches())
	}
}

// TestAbortedChainUnwindsBeforeNextStep: a process aborted while parked
// on a chain is resumed by the chain's next link, at the end of the
// step in progress, without that link calling the step function, and
// unwinds through its deferred cleanups.
func TestAbortedChainUnwindsBeforeNextStep(t *testing.T) {
	k := NewKernel(1)
	pingPong(k)
	calls := 0
	var unwoundAt Time = -1
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { unwoundAt = p.Now() }()
		p.Chain(func() Duration { calls++; return 10 })
	})
	k.Schedule(15, func() { k.Abort(victim) })
	k.Run(100)
	if calls != 2 || unwoundAt != 20 || !victim.Done() {
		t.Fatalf("step function called %d times, unwound at %d (done %v); want 2 calls, unwound at 20", calls, unwoundAt, victim.Done())
	}
	k.Shutdown()
}

// TestChainAllocs: once the kernel is warm, playing chains allocates
// nothing: the link is bound once per process and event nodes are
// recycled.
func TestChainAllocs(t *testing.T) {
	k := NewKernel(1)
	pingPong(k)
	steps := 0
	next := func() Duration {
		if steps++; steps%4 == 0 {
			return 0
		}
		return 3
	}
	k.Spawn("chained", func(p *Proc) {
		for {
			p.Chain(next)
		}
	})
	until := Time(1000)
	k.Run(until)
	allocs := testing.AllocsPerRun(100, func() {
		until += 100
		k.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("playing chains allocates %v per run of 100 cycles, want 0", allocs)
	}
	k.Shutdown()
}
