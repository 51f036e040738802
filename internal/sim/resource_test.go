package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceUncontended(t *testing.T) {
	k := NewKernel(1)
	r := NewLock(k, "l")
	k.Spawn("p", func(p *Proc) {
		if w := r.Acquire(p); w != 0 {
			t.Errorf("uncontended acquire waited %d", w)
		}
		p.Hold(10)
		r.Release()
	})
	k.RunAll()
	if r.Contended() != 0 || r.Acquires() != 1 {
		t.Fatalf("acquires=%d contended=%d", r.Acquires(), r.Contended())
	}
	if r.InUse() != 0 {
		t.Fatalf("in use = %d after release", r.InUse())
	}
}

func TestResourceFCFS(t *testing.T) {
	k := NewKernel(1)
	r := NewLock(k, "l")
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Hold(Duration(i)) // arrive in index order
			r.Acquire(p)
			order = append(order, i)
			p.Hold(100)
			r.Release()
		})
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v, want FCFS", order)
		}
	}
	if r.MaxWaiters() != 3 {
		t.Fatalf("max waiters = %d, want 3", r.MaxWaiters())
	}
}

func TestResourceSerializesCriticalSection(t *testing.T) {
	k := NewKernel(1)
	r := NewLock(k, "l")
	const n, hold = 8, 13
	var last Time
	for i := 0; i < n; i++ {
		k.Spawn("p", func(p *Proc) {
			r.Acquire(p)
			p.Hold(hold)
			r.Release()
			last = p.Now()
		})
	}
	k.RunAll()
	if want := Time(n * hold); last != want {
		t.Fatalf("lock serialization: last exit at %d, want %d", last, want)
	}
	if r.WaitTotal() == 0 {
		t.Fatal("expected nonzero aggregate wait")
	}
}

func TestResourceCapacity(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, "r", 3)
	var finish []Time
	for i := 0; i < 6; i++ {
		k.Spawn("p", func(p *Proc) {
			r.Acquire(p)
			p.Hold(10)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	k.RunAll()
	// First 3 finish at 10, next 3 at 20.
	for i, want := range []Time{10, 10, 10, 20, 20, 20} {
		if finish[i] != want {
			t.Fatalf("finish = %v", finish)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	k := NewKernel(1)
	r := NewLock(k, "l")
	var got []bool
	k.Spawn("a", func(p *Proc) {
		got = append(got, r.TryAcquire(p))
		p.Hold(10)
		r.Release()
	})
	k.Spawn("b", func(p *Proc) {
		p.Hold(5)
		got = append(got, r.TryAcquire(p)) // held by a
		p.Hold(10)
		got = append(got, r.TryAcquire(p)) // free at 15
	})
	k.RunAll()
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TryAcquire results = %v, want %v", got, want)
		}
	}
}

func TestReleaseBelowZeroPanics(t *testing.T) {
	k := NewKernel(1)
	r := NewLock(k, "l")
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	r.Release()
}

func TestUseReturnsQueueDelay(t *testing.T) {
	k := NewKernel(1)
	r := NewLock(k, "l")
	var delay Duration
	k.Spawn("a", func(p *Proc) { r.Use(p, 20) })
	k.Spawn("b", func(p *Proc) {
		p.Hold(5)
		delay = r.Use(p, 20)
	})
	k.RunAll()
	if delay != 15 {
		t.Fatalf("queue delay = %d, want 15", delay)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "c")
	var woken []int
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Hold(Duration(i))
			c.Wait(p)
			woken = append(woken, i)
		})
	}
	k.Spawn("s", func(p *Proc) {
		p.Hold(100)
		for i := 0; i < 3; i++ {
			c.Signal()
			p.Hold(10)
		}
	})
	k.RunAll()
	for i, v := range woken {
		if v != i {
			t.Fatalf("wake order = %v, want FIFO", woken)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "c")
	count := 0
	for i := 0; i < 7; i++ {
		k.Spawn("w", func(p *Proc) {
			c.Wait(p)
			count++
		})
	}
	k.Spawn("s", func(p *Proc) {
		p.Hold(5)
		if n := c.Broadcast(); n != 7 {
			t.Errorf("Broadcast woke %d, want 7", n)
		}
	})
	k.RunAll()
	if count != 7 {
		t.Fatalf("woken = %d, want 7", count)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "c")
	var waited Duration
	var timedOut bool
	k.Spawn("w", func(p *Proc) {
		waited, timedOut = c.WaitTimeout(p, 50)
	})
	k.RunAll()
	if !timedOut || waited != 50 {
		t.Fatalf("waited=%d timedOut=%v, want 50,true", waited, timedOut)
	}
	if c.Waiters() != 0 {
		t.Fatalf("waiter leaked after timeout")
	}
}

func TestCondWaitTimeoutSignaledFirst(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "c")
	var waited Duration
	var timedOut bool
	k.Spawn("w", func(p *Proc) {
		waited, timedOut = c.WaitTimeout(p, 50)
	})
	k.Spawn("s", func(p *Proc) {
		p.Hold(20)
		c.Signal()
	})
	k.RunAll()
	if timedOut || waited != 20 {
		t.Fatalf("waited=%d timedOut=%v, want 20,false", waited, timedOut)
	}
}

func TestCalendarBackToBack(t *testing.T) {
	c := NewCalendarStore(2)
	s1, e1 := c.Reserve(1, 0, 10)
	s2, e2 := c.Reserve(1, 0, 10)
	if s1 != 0 || e1 != 10 || s2 != 10 || e2 != 20 {
		t.Fatalf("reservations: [%d,%d] [%d,%d]", s1, e1, s2, e2)
	}
	if c.DelayTotal(1) != 10 || c.Delayed(1) != 1 {
		t.Fatalf("delay=%d delayed=%d", c.DelayTotal(1), c.Delayed(1))
	}
	if c.FreeAt(0) != 0 || c.Reservations(0) != 0 {
		t.Fatal("reserving entry 1 touched entry 0")
	}
}

func TestCalendarIdleGap(t *testing.T) {
	c := NewCalendarStore(1)
	c.Reserve(0, 0, 10)
	s, e := c.Reserve(0, 100, 5)
	if s != 100 || e != 105 {
		t.Fatalf("gap reservation at [%d,%d], want [100,105]", s, e)
	}
	if c.DelayTotal(0) != 0 {
		t.Fatalf("idle-gap reservation recorded delay %d", c.DelayTotal(0))
	}
}

func TestCalendarUtilization(t *testing.T) {
	c := NewCalendarStore(1)
	c.Reserve(0, 0, 25)
	c.Reserve(0, 50, 25)
	if got := c.Utilization(0, 100); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

// Property: a store entry's reservations never overlap and never start before
// the request time.
func TestQuickCalendarNoOverlap(t *testing.T) {
	f := func(raw []struct {
		At   uint16
		Busy uint8
	}) bool {
		c := NewCalendarStore(1)
		var at Time
		prevEnd := Time(0)
		for _, r := range raw {
			at += Time(r.At % 64) // non-decreasing request times
			s, e := c.Reserve(0, at, Duration(r.Busy))
			if s < at || s < prevEnd || e != s+Duration(r.Busy) {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with capacity 1 and fixed service, n acquirers finish in
// exactly n*service cycles regardless of arrival pattern within the
// service window.
func TestQuickLockThroughput(t *testing.T) {
	f := func(n uint8) bool {
		procs := int(n%16) + 1
		k := NewKernel(3)
		r := NewLock(k, "l")
		var last Time
		for i := 0; i < procs; i++ {
			k.Spawn("p", func(p *Proc) {
				r.Use(p, 9)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		k.RunAll()
		return last == Time(procs*9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
