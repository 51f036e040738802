package sim

import "testing"

// BenchmarkKernelScheduleHold measures the kernel's hot path for a
// lone process advancing virtual time one Hold at a time. Its own wake
// is always the next event and no interrupt check is installed, so the
// kernel fires every wake in place: a peek at the empty queue and no
// coroutine switch. The allocation report is the contract — steady-
// state Schedule/Hold must be 0 allocs/op — and the events/sec metric
// is the kernel's raw dispatch throughput.
func BenchmarkKernelScheduleHold(b *testing.B) {
	k := NewKernel(1)
	k.Spawn("bench", func(p *Proc) {
		for {
			p.Hold(1)
		}
	})
	k.Run(1024) // warm up the node pool before measuring
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(1024 + Time(b.N))
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	k.Shutdown()
}

// BenchmarkKernelScheduleCancel measures the eager cancel path:
// schedule a far-future event and remove it from the middle of a
// populated heap. Also 0 allocs/op once the pool is warm.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	// A standing population so cancels exercise real sift work.
	for i := 0; i < 256; i++ {
		k.Schedule(Time(1_000_000+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := k.Schedule(Time(500_000+i%1024), fn)
		e.Cancel()
	}
}

// BenchmarkKernelManyProcs measures dispatch with a crowd of
// interleaved holders — the shape of a 32-CE simulation step.
func BenchmarkKernelManyProcs(b *testing.B) {
	k := NewKernel(1)
	const procs = 32
	for i := 0; i < procs; i++ {
		d := Duration(1 + i%7)
		k.Spawn("ce", func(p *Proc) {
			for {
				p.Hold(d)
			}
		})
	}
	k.Run(1024)
	b.ReportAllocs()
	b.ResetTimer()
	fired := k.Run(1024 + Time(b.N))
	b.StopTimer()
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/sec")
	k.Shutdown()
}

// BenchmarkCalendarReserve measures the conveyor-reservation primitive
// behind every memory-module, network-port, cache and bus booking — a
// CalendarStore entry: it must stay a handful of arithmetic ops and 0
// allocs/op.
func BenchmarkCalendarReserve(b *testing.B) {
	c := NewCalendarStore(32)
	b.ReportAllocs()
	b.ResetTimer()
	var at Time
	for i := 0; i < b.N; i++ {
		// Alternate contended and idle arrivals.
		_, end := c.Reserve(7, at, 3)
		if i%2 == 0 {
			at = end + 2
		}
	}
}

// BenchmarkCalendarReserveRun measures run booking: one op books a
// 32-slice run through a port store and then a module store, one entry
// per slice on each, as a healthy memory books one group's last forward
// stage and modules (ReserveRunThen). Request times and the run's start
// vary pseudo-randomly, so whether a slice queues is as hard to predict
// as under real contention. It must stay 0 allocs/op; compare its
// ns/op with 64 BenchmarkCalendarReserve ops.
func BenchmarkCalendarReserveRun(b *testing.B) {
	ports, modules := NewCalendarStore(64), NewCalendarStore(64)
	times := make([]Time, 32)
	b.ReportAllocs()
	b.ResetTimer()
	var at Time
	x := uint32(1)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		for j := range times {
			times[j] = at
		}
		last := ports.ReserveRunThen(0, int(x%32), times, 3, 4, 1, modules, 5, 6, int(x>>8)%7)
		// Alternate contended and idle arrivals.
		at = last - Time(x>>16)%24
	}
}

// BenchmarkProcPingPong measures the process switch itself: two
// processes alternate Hold(1), so every event resumes the other
// process and no callback or self-wake ever runs in between. The other
// process's wake is always pending first, so no Hold fires in place.
// One op is one event: a process wake, the switch into it and the
// switch back.
func BenchmarkProcPingPong(b *testing.B) {
	k := NewKernel(1)
	for i := 0; i < 2; i++ {
		k.Spawn("pingpong", func(p *Proc) {
			for {
				p.Hold(1)
			}
		})
	}
	k.Run(1024)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(1024 + Time((b.N+1)/2)) // two wakes per cycle
	b.StopTimer()
	k.Shutdown()
}
