package sim

import (
	"reflect"
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
	if res, _, delay, delayed := c.Totals(); c.DelayTotal(1) != 10 || res != 2 || delay != 10 || delayed != 1 {
		t.Fatalf("entry delay=%d; totals reservations=%d delay=%d delayed=%d",
			c.DelayTotal(1), res, delay, delayed)
	}
	if c.FreeAt(0) != 0 || c.BusyTotal(0) != 0 || c.DelayTotal(0) != 0 {
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

// calendarRun is one random ReserveRun: a store of 1..16 entries that
// earlier bookings left partly busy, and a run over it.
type calendarRun struct {
	Entries     uint8
	Warm        []struct{ Entry, At, Busy uint8 }
	Base, First uint8
	Div         uint8
	At          []uint16
	Short, Long uint8
	NLong       uint8
	Stretched   bool    // false books with a nil stretch
	Stretch     []uint8 // per-entry factor codes
}

// stretchFactors maps a stretch code to a factor: 0 and 1 leave the
// busy time alone, the rest stretch it, some to a half cycle.
var stretchFactors = [...]float64{0, 1, 0.5, 1.25, 1.5, 2, 2.5, 3.3, 4}

// apply books r through ReserveRun when run is true, and through one
// Reserve call per slice otherwise, and returns the store, the end time
// of every slice and the latest end.
func (r calendarRun) apply(run bool) (c *CalendarStore, ends []Time, last Time) {
	n := int(r.Entries%16) + 1
	c = NewCalendarStore(n)
	for _, w := range r.Warm {
		c.Reserve(int(w.Entry)%n, Time(w.At), Duration(w.Busy))
	}
	div := int(r.Div%4) + 1
	base := int(r.Base) % n
	first := int(r.First) % ((n - base) * div)
	slices := min(len(r.At), (n-base)*div-first)
	times := make([]Time, slices)
	for j := range times {
		times[j] = Time(r.At[j] % 512)
	}
	nLong := int(r.NLong) % (slices + 1)
	var stretch []float64
	if r.Stretched {
		stretch = make([]float64, n-base)
		for e := range stretch {
			if e < len(r.Stretch) {
				stretch[e] = stretchFactors[int(r.Stretch[e])%len(stretchFactors)]
			}
		}
	}
	short, long := Duration(r.Short), Duration(r.Long)
	if run {
		return c, times, c.ReserveRun(base, first, div, times, short, long, nLong, stretch)
	}
	for j, at := range times {
		rel := (first + j) / div
		busy := short
		if j < nLong {
			busy = long
		}
		if stretch != nil && stretch[rel] > 1 {
			busy = Duration(float64(busy)*stretch[rel] + 0.5)
		}
		_, times[j] = c.Reserve(base+rel, at, busy)
		last = max(last, times[j])
	}
	return c, times, last
}

// Property: ReserveRun leaves the store, its totals, the slice end
// times and the latest end exactly as the same bookings made one
// Reserve call at a time.
func TestQuickCalendarReserveRunMatchesReserve(t *testing.T) {
	f := func(r calendarRun) bool {
		got, gotEnds, gotLast := r.apply(true)
		want, wantEnds, wantLast := r.apply(false)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEnds, wantEnds) || gotLast != wantLast {
			return false
		}
		r1, b1, d1, x1 := got.Totals()
		r2, b2, d2, x2 := want.Totals()
		return r1 == r2 && b1 == b2 && d1 == d2 && x1 == x2 && r1 == uint64(len(r.Warm)+len(gotEnds))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// calendarRunThen is one random ReserveRunThen: two stores that earlier
// bookings left partly busy, and a run through both.
type calendarRunThen struct {
	Base, First, Slices uint8
	Entries             uint8
	Warm                []struct {
		Next            bool
		Entry, At, Busy uint8
	}
	At                  []uint16
	Short, Long, Lat    uint8
	NextShort, NextLong uint8
	NLong               uint8
}

// apply books r through ReserveRunThen when fused is true, and
// otherwise through ReserveRun on the first store, lat added to every
// end, then ReserveRun on the second. It returns both stores, the
// request times as the call left them and the latest end.
func (r calendarRunThen) apply(fused bool) (s, next *CalendarStore, times []Time, last Time) {
	n := int(r.Entries%16) + 1
	base := int(r.Base % 8)
	s, next = NewCalendarStore(base+n), NewCalendarStore(n)
	for _, w := range r.Warm {
		if w.Next {
			next.Reserve(int(w.Entry)%n, Time(w.At), Duration(w.Busy))
		} else {
			s.Reserve(int(w.Entry)%(base+n), Time(w.At), Duration(w.Busy))
		}
	}
	first := int(r.First) % n
	times = make([]Time, min(int(r.Slices)%(n-first+1), len(r.At)))
	for j := range times {
		times[j] = Time(r.At[j])
	}
	short, long, lat := Duration(r.Short%9), Duration(r.Long%9), Duration(r.Lat%5)
	nextShort, nextLong := Duration(r.NextShort%9), Duration(r.NextLong%9)
	nLong := int(r.NLong) % (len(times) + 1)
	if fused {
		return s, next, times, s.ReserveRunThen(base, first, times, short, long, lat, next, nextShort, nextLong, nLong)
	}
	at := append([]Time(nil), times...)
	s.ReserveRun(base, first, 1, at, short, long, nLong, nil)
	for j := range at {
		at[j] += lat
	}
	return s, next, times, next.ReserveRun(0, first, 1, at, nextShort, nextLong, nLong, nil)
}

// Property: ReserveRunThen leaves both stores, their totals and the
// latest end exactly as the two ReserveRun calls it fuses, and leaves
// the request times unchanged.
func TestQuickCalendarReserveRunThenMatchesTwoRuns(t *testing.T) {
	f := func(r calendarRunThen) bool {
		s1, n1, t1, l1 := r.apply(true)
		s2, n2, t2, l2 := r.apply(false)
		return reflect.DeepEqual(s1, s2) && reflect.DeepEqual(n1, n2) && reflect.DeepEqual(t1, t2) && l1 == l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarReserveRunAllocs: booking a run allocates nothing.
func TestCalendarReserveRunAllocs(t *testing.T) {
	c := NewCalendarStore(64)
	times := make([]Time, 32)
	stretch := make([]float64, 32)
	stretch[5] = 2.5
	var at Time
	allocs := testing.AllocsPerRun(100, func() {
		for j := range times {
			times[j] = at
		}
		c.ReserveRun(32, 3, 2, times, 4, 5, 7, stretch)
		c.ReserveRun(0, 0, 1, times, 4, 5, 7, nil)
		c.ReserveRunThen(32, 0, times, 4, 5, 1, c, 4, 5, 7)
		at += 3
	})
	if allocs != 0 {
		t.Fatalf("ReserveRun and ReserveRunThen allocate %v per run, want 0", allocs)
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
