package sim

import "fmt"

// CalendarStore is a bank of conveyor resources — memory modules,
// network switch output ports, cluster cache bank arrays, concurrency-
// control buses — flattened into struct-of-arrays. Each entry models a
// pipelined bandwidth resource: a reservation occupies it for a busy
// period starting no earlier than the request time and no earlier than
// the end of the previous reservation, and queueing delay (contention)
// is the gap between the request time and the granted start.
//
// Unlike Resource, a store never blocks a process: callers obtain the
// completion time and Hold for it themselves. This keeps the event
// count per memory access at one, which is what makes simulating
// billions of cycles of a 32-processor machine tractable.
//
// Each entry's free time and statistics live in their own dense slices
// instead of one heap object per resource. The big machine
// configurations have thousands of network ports and memory modules
// whose reservations dominate the event loop; scanning and updating
// parallel arrays keeps that hot path in a handful of cache lines.
// Entries have no names — owners that need a diagnostic name (e.g.
// the network's hot-port report) synthesize it from the index.
//
// Per entry the store keeps only what callers read per entry: the free
// time, the booked busy time (utilization) and the imposed queueing
// delay (hot-spot reports). Reservation and delayed counts are read
// only as totals, so they are store-wide counters.
type CalendarStore struct {
	freeAt       []Time
	busyTotal    []Duration
	delayTotal   []Duration
	reservations uint64
	delayed      uint64
}

// NewCalendarStore creates a store of n conveyor resources, all free
// at time zero.
func NewCalendarStore(n int) *CalendarStore {
	return &CalendarStore{
		freeAt:     make([]Time, n),
		busyTotal:  make([]Duration, n),
		delayTotal: make([]Duration, n),
	}
}

// Len returns the number of resources in the store.
func (s *CalendarStore) Len() int { return len(s.freeAt) }

// Reserve books resource i for busy cycles at the earliest time not
// before at. It returns the start and end of the granted slot.
func (s *CalendarStore) Reserve(i int, at Time, busy Duration) (start, end Time) {
	if busy < 0 {
		panic(fmt.Sprintf("sim: calendar store entry %d negative busy %d", i, busy))
	}
	start = at
	if f := s.freeAt[i]; f > at {
		start = f
		s.delayed++
		s.delayTotal[i] += f - at
	}
	end = start + busy
	s.freeAt[i] = end
	s.reservations++
	s.busyTotal[i] += busy
	return start, end
}

// ReserveRun books one run of len(times) slices in slice order, with
// the same result as a Reserve call per slice. Slice j books entry
// base + (first+j)/div at request time times[j], and times[j] receives
// the end of its slot. div is 1 when every slice has an entry of its
// own; a larger div shares each entry among div consecutive slices.
// Slices j < nLong are busy for long cycles and the rest for short.
// When stretch is non-nil, an entry whose stretch[(first+j)/div]
// exceeds 1 holds each slice that many times longer, rounded to the
// nearest cycle. ReserveRun returns the latest end, or 0 for an empty
// run.
func (s *CalendarStore) ReserveRun(base, first, div int, times []Time, short, long Duration, nLong int, stretch []float64) (last Time) {
	if short < 0 || long < 0 {
		panic(fmt.Sprintf("sim: calendar store run at entry %d negative busy %d/%d", base, short, long))
	}
	s.reservations += uint64(len(times))
	var delayed uint64
	idx, rem := first/div, first%div
	for j, at := range times {
		busy := short
		if j < nLong {
			busy = long
		}
		if stretch != nil {
			if f := stretch[idx]; f > 1 {
				busy = Duration(float64(busy)*f + 0.5)
			}
		}
		e := base + idx
		start := at
		if f := s.freeAt[e]; f > at {
			start = f
			delayed++
			s.delayTotal[e] += f - at
		}
		end := start + busy
		s.freeAt[e] = end
		s.busyTotal[e] += busy
		times[j] = end
		last = max(last, end)
		if rem++; rem == div {
			idx, rem = idx+1, 0
		}
	}
	s.delayed += delayed
	return last
}

// ReserveRunThen books a run of len(times) slices through two stores in
// series, one entry per slice on each and no stretch, in one pass:
// slice j books entry base+first+j of s at request time times[j], then
// entry first+j of next at the end of that slot plus lat. Slices
// j < nLong are busy for long and nextLong cycles, the rest for short
// and nextShort. The bookings are those of ReserveRun on s (div 1, nil
// stretch), lat added to every end, then ReserveRun on next; the pass
// just keeps each slice's time between the two in a register instead
// of writing it back to times, which it leaves unchanged. It returns
// the latest end on next, or 0 for an empty run.
func (s *CalendarStore) ReserveRunThen(base, first int, times []Time, short, long, lat Duration, next *CalendarStore, nextShort, nextLong Duration, nLong int) (last Time) {
	if short < 0 || long < 0 || nextShort < 0 || nextLong < 0 {
		panic(fmt.Sprintf("sim: calendar store run at entry %d negative busy %d/%d then %d/%d",
			base+first, short, long, nextShort, nextLong))
	}
	n := len(times)
	if n == 0 {
		return 0
	}
	s.reservations += uint64(n)
	next.reservations += uint64(n)
	// Reslice every array to the run, so the loop indexes without
	// bounds checks.
	e := base + first
	free, busyTot, delayTot := s.freeAt[e:e+n], s.busyTotal[e:e+n], s.delayTotal[e:e+n]
	nFree, nBusyTot, nDelayTot := next.freeAt[first:first+n], next.busyTotal[first:first+n], next.delayTotal[first:first+n]
	var delayed, nDelayed uint64
	for j, at := range times {
		busy, nBusy := short, nextShort
		if j < nLong {
			busy, nBusy = long, nextLong
		}
		start := at
		if f := free[j]; f > at {
			start = f
			delayed++
			delayTot[j] += f - at
		}
		end := start + busy
		free[j] = end
		busyTot[j] += busy

		at = end + lat
		start = at
		if f := nFree[j]; f > at {
			start = f
			nDelayed++
			nDelayTot[j] += f - at
		}
		end = start + nBusy
		nFree[j] = end
		nBusyTot[j] += nBusy
		last = max(last, end)
	}
	s.delayed += delayed
	next.delayed += nDelayed
	return last
}

// FreeAt returns the time resource i next becomes free.
func (s *CalendarStore) FreeAt(i int) Time { return s.freeAt[i] }

// BusyTotal returns the total busy time booked on resource i.
func (s *CalendarStore) BusyTotal(i int) Duration { return s.busyTotal[i] }

// DelayTotal returns the total queueing delay imposed on resource i's
// reservations.
func (s *CalendarStore) DelayTotal(i int) Duration { return s.delayTotal[i] }

// Utilization returns resource i's busyTotal / now; now must be > 0.
func (s *CalendarStore) Utilization(i int, now Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(s.busyTotal[i]) / float64(now)
}

// MaxBacklog returns the largest span by which any resource's next-free
// time exceeds now — the hot-spot pressure signal over the whole bank.
func (s *CalendarStore) MaxBacklog(now Time) Duration {
	var max Duration
	for _, f := range s.freeAt {
		if b := f - now; b > max {
			max = b
		}
	}
	return max
}

// DelaySum returns the total queueing delay over all resources.
func (s *CalendarStore) DelaySum() Duration {
	var total Duration
	for _, d := range s.delayTotal {
		total += d
	}
	return total
}

// Totals returns the aggregate statistics over all resources: the
// bookings made, the busy time and queueing delay they imposed, and
// how many of them found their resource busy.
func (s *CalendarStore) Totals() (reservations uint64, busy, delay Duration, delayed uint64) {
	for i := range s.busyTotal {
		busy += s.busyTotal[i]
		delay += s.delayTotal[i]
	}
	return s.reservations, busy, delay, s.delayed
}

// MaxDelayIndex returns the resource with the largest cumulative
// queueing delay (the first such index on ties) and that delay.
// It returns index -1 when no resource has been delayed.
func (s *CalendarStore) MaxDelayIndex() (i int, delay Duration) {
	i = -1
	for j, d := range s.delayTotal {
		if d > delay {
			delay = d
			i = j
		}
	}
	return i, delay
}
