package sim

import (
	"errors"
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
// Go scheduler, so RunErr must yield its thread on its own. On one P,
// a goroutine started just before the run has to get the CPU within a
// few hundred events, not only when async preemption fires.
func TestRunErrLetsOtherGoroutinesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := NewKernel(1)
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
	if seenAt == 0 || seenAt > 4*schedEvery {
		t.Fatalf("a process saw the other goroutine's flag after %d events, want within %d", seenAt, 4*schedEvery)
	}
}
