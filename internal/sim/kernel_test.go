package sim

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestScheduleTieBreakFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10, func() {})
	k.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(5, func() {})
}

func TestEventCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(10, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if e.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	k.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	n := k.Run(12)
	if n != 2 || len(fired) != 2 {
		t.Fatalf("Run(12) fired %d events (%v), want 2", n, fired)
	}
	if k.Now() != 10 {
		t.Fatalf("clock = %d, want 10", k.Now())
	}
	k.RunAll()
	if len(fired) != 4 {
		t.Fatalf("RunAll left events behind: %v", fired)
	}
}

func TestProcHold(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	k.Spawn("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Hold(100)
		at = append(at, p.Now())
		p.Hold(50)
		at = append(at, p.Now())
	})
	k.RunAll()
	want := []Time{0, 100, 150}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("hold times = %v, want %v", at, want)
		}
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", k.LiveProcs())
	}
}

func TestProcHoldZeroDoesNotYield(t *testing.T) {
	k := NewKernel(1)
	order := []string{}
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Hold(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) { order = append(order, "b") })
	k.RunAll()
	if order[0] != "a1" || order[1] != "a2" || order[2] != "b" {
		t.Fatalf("Hold(0) yielded: %v", order)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	mk := func(name string, step Duration) {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Hold(step)
				trace = append(trace, name)
			}
		})
	}
	mk("a", 10)
	mk("b", 15)
	k.RunAll()
	// a wakes at 10, 20, 30; b wakes at 15, 30, 45. At t=30, b's wake
	// event was scheduled earlier (at t=15) than a's (at t=20), so b
	// fires first.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) {
		p.Hold(5)
		panic("kaboom")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("process panic did not propagate to Run")
		}
	}()
	k.RunAll()
}

func TestHoldNegativePanics(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Proc) { p.Hold(-1) })
	defer func() {
		if recover() == nil {
			t.Fatal("negative Hold did not panic")
		}
	}()
	k.RunAll()
}

func TestShutdownUnblocksAll(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "never")
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) { c.Wait(p) })
	}
	k.RunAll()
	if got := len(k.BlockedProcs()); got != 5 {
		t.Fatalf("blocked procs = %d, want 5", got)
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("live procs after Shutdown = %d, want 0", k.LiveProcs())
	}
}

func TestShutdownRunsDeferredCleanup(t *testing.T) {
	k := NewKernel(1)
	cleaned := false
	c := NewCond(k, "never")
	k.Spawn("w", func(p *Proc) {
		defer func() {
			cleaned = true
			// The abort panic must still be in flight; re-panic so the
			// wrapper sees it.
			if r := recover(); r != nil {
				panic(r)
			}
		}()
		c.Wait(p)
	})
	k.RunAll()
	k.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run during Shutdown")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel(42)
		var stamps []Time
		r := NewResource(k, "r", 2)
		for i := 0; i < 8; i++ {
			k.Spawn("p", func(p *Proc) {
				p.Hold(Duration(k.Rand().Intn(20)))
				r.Acquire(p)
				p.Hold(7)
				r.Release()
				stamps = append(stamps, p.Now())
			})
		}
		k.RunAll()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the final clock equals the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel(7)
		var fired []Time
		var max Time
		for _, r := range raw {
			at := Time(r)
			if at > max {
				max = at
			}
			k.Schedule(at, func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(raw) == 0 || k.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a chain of Holds advances the clock by exactly the sum.
func TestQuickHoldSum(t *testing.T) {
	f := func(raw []uint8) bool {
		k := NewKernel(7)
		var sum Time
		for _, r := range raw {
			sum += Time(r)
		}
		done := false
		k.Spawn("p", func(p *Proc) {
			for _, r := range raw {
				p.Hold(Duration(r))
			}
			done = p.Now() == sum
		})
		k.RunAll()
		return done
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRemovesEventEagerly(t *testing.T) {
	k := NewKernel(1)
	e := k.Schedule(1_000_000, func() { t.Error("canceled event fired") })
	if !e.Pending() {
		t.Fatal("scheduled event not pending")
	}
	if k.PendingEvents() != 1 {
		t.Fatalf("pending events = %d, want 1", k.PendingEvents())
	}
	if !e.Cancel() {
		t.Fatal("Cancel returned false")
	}
	// The eager-drop contract: a canceled far-future event leaves the
	// queue immediately instead of riding along until its fire time.
	if k.PendingEvents() != 0 {
		t.Fatalf("canceled event retained: %d pending", k.PendingEvents())
	}
	if !k.Idle() {
		t.Fatal("kernel not idle after cancel")
	}
	if e.Pending() {
		t.Fatal("canceled event still pending")
	}
	k.RunAll()
}

func TestStaleHandleAfterRecycle(t *testing.T) {
	k := NewKernel(1)
	e1 := k.Schedule(10, func() {})
	k.RunAll()
	// e1's node is back on the free list; the next Schedule reuses it.
	e2 := k.Schedule(20, func() {})
	if e1.Cancel() {
		t.Fatal("stale handle canceled a recycled event")
	}
	if e1.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if got := e1.Time(); got != 10 {
		t.Fatalf("stale handle Time = %d, want the original 10", got)
	}
	if !e2.Pending() {
		t.Fatal("live event lost its pending state")
	}
	if !e2.Cancel() {
		t.Fatal("live handle failed to cancel")
	}
}

func TestZeroEventIsStale(t *testing.T) {
	var e Event
	if e.Pending() {
		t.Fatal("zero Event pending")
	}
	if e.Cancel() {
		t.Fatal("zero Event canceled")
	}
}

func TestCancelInterleavedKeepsOrder(t *testing.T) {
	// Canceling from the middle of the heap must not disturb the
	// (time, seq) total order of the survivors.
	k := NewKernel(1)
	var events []Event
	var got []int
	for i := 0; i < 64; i++ {
		i := i
		events = append(events, k.Schedule(Time(97*i%31), func() { got = append(got, 97*i%31) }))
	}
	for i := 0; i < 64; i += 3 {
		events[i].Cancel()
	}
	k.RunAll()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order after cancels: %v", got)
		}
	}
	if want := 64 - 22; len(got) != want {
		t.Fatalf("fired %d events, want %d", len(got), want)
	}
}

func TestScheduleHoldSteadyStateZeroAllocs(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("holder", func(p *Proc) {
		for {
			p.Hold(1)
		}
	})
	k.Run(64) // warm up: mint the pooled nodes
	allocs := testing.AllocsPerRun(200, func() {
		k.Run(k.Now() + 8)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Hold loop allocates %.1f per Run slice, want 0", allocs)
	}
	k.Shutdown()
}

func TestHoldUntilOutsideProcessPanics(t *testing.T) {
	k := NewKernel(1)
	var proc *Proc
	k.Spawn("p", func(p *Proc) { proc = p; p.Hold(10) })
	k.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("HoldUntil from outside the process did not panic")
		}
		k.Shutdown()
	}()
	// Regression: this used to silently no-op when t was not in the
	// future, where Hold/Yield panic.
	proc.HoldUntil(0)
}

func TestInterruptStopsRun(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	// A self-rescheduling event: without an interrupt this would run
	// to the until bound.
	var tick func()
	tick = func() {
		fired++
		k.After(1, tick)
	}
	k.Schedule(0, tick)
	stop := errTestCause
	calls := 0
	k.SetInterrupt(8, func() error {
		calls++
		if calls >= 3 {
			return stop
		}
		return nil
	})
	_, err := k.RunErr(1 << 20)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, errTestCause) {
		t.Fatalf("err = %v does not unwrap to the interrupt cause", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || ce.Cause != stop {
		t.Fatalf("err = %#v, want *CanceledError carrying the cause", err)
	}
	// The check fires every 8 dispatched events; with it returning the
	// stop on its third call the run must end long before the bound.
	if fired > 32 {
		t.Fatalf("run dispatched %d events after cancel; interrupt not prompt", fired)
	}
}

func TestInterruptNilCheckIdentical(t *testing.T) {
	run := func(install bool) (uint64, Time) {
		k := NewKernel(7)
		if install {
			k.SetInterrupt(1, func() error { return nil })
		}
		n := 0
		var tick func()
		tick = func() {
			if n++; n < 100 {
				k.After(3, tick)
			}
		}
		k.Schedule(0, tick)
		k.RunAll()
		return k.EventsFired(), k.Now()
	}
	f0, t0 := run(false)
	f1, t1 := run(true)
	if f0 != f1 || t0 != t1 {
		t.Fatalf("non-firing interrupt perturbed the run: (%d,%d) vs (%d,%d)", f0, t0, f1, t1)
	}
}

var errTestCause = errors.New("test cause")

// pingPong spawns two processes that alternate Hold(1) until the run
// stops, so every event wakes the process that did not run last. Each
// Hold finds the other process's wake pending at the same time, so it
// never fires in place: every wake is a coroutine switch.
func pingPong(k *Kernel) {
	for i := 0; i < 2; i++ {
		k.Spawn("ping", func(p *Proc) {
			for {
				p.Hold(1)
			}
		})
	}
}

func TestCallbackPanicPropagatesFromRun(t *testing.T) {
	k := NewKernel(1)
	pingPong(k)
	k.Schedule(50, func() { panic("callback boom") })
	defer func() {
		if r := recover(); r != "callback boom" {
			t.Fatalf("recovered %v, want the callback's panic", r)
		}
		if k.Now() != 50 {
			t.Fatalf("panicked at %d, want 50", k.Now())
		}
		k.Shutdown()
	}()
	// A panic raised on any goroutine but this one would crash the
	// test binary instead of reaching the deferred recover.
	k.Run(100)
	t.Fatal("Run returned after a callback panic")
}

func TestProcPanicBecomesFatalError(t *testing.T) {
	k := NewKernel(1)
	pingPong(k)
	k.Spawn("bad", func(p *Proc) {
		p.Hold(50)
		panic("proc boom")
	})
	_, err := k.RunErr(100)
	if err == nil || !strings.Contains(err.Error(), `process "bad" panicked: proc boom`) {
		t.Fatalf("RunErr error = %v, want the process panic", err)
	}
	if k.Now() != 50 {
		t.Fatalf("stopped at %d, want 50", k.Now())
	}
	if _, err := k.RunErr(60); err != nil {
		t.Fatalf("run after the fatal error: %v", err)
	}
	k.Shutdown()
}

func TestAbortBlockedProcDuringHandoff(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "never")
	var unwound any
	var aborted Time = -1
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() {
			unwound = recover()
			aborted = p.Now()
			panic(unwound)
		}()
		c.Wait(p)
	})
	pingPong(k)
	k.Spawn("killer", func(p *Proc) {
		p.Hold(20)
		k.Abort(victim)
		p.Hold(5)
	})
	n, err := k.RunErr(100)
	if err != nil {
		t.Fatalf("RunErr: %v", err)
	}
	if unwound != ErrAborted || aborted != 20 {
		t.Fatalf("victim unwound with %v at %d, want ErrAborted at 20", unwound, aborted)
	}
	if !victim.Done() || k.Now() != 100 || k.LiveProcs() != 2 {
		t.Fatalf("done=%v now=%d live=%d after abort", victim.Done(), k.Now(), k.LiveProcs())
	}
	if n != k.EventsFired() {
		t.Fatalf("RunErr fired %d, kernel counted %d", n, k.EventsFired())
	}
	k.Shutdown()
}
