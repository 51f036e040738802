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
type CalendarStore struct {
	freeAt       []Time
	reservations []uint64
	busyTotal    []Duration
	delayTotal   []Duration
	delayed      []uint64
}

// NewCalendarStore creates a store of n conveyor resources, all free
// at time zero.
func NewCalendarStore(n int) *CalendarStore {
	return &CalendarStore{
		freeAt:       make([]Time, n),
		reservations: make([]uint64, n),
		busyTotal:    make([]Duration, n),
		delayTotal:   make([]Duration, n),
		delayed:      make([]uint64, n),
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
	if s.freeAt[i] > start {
		start = s.freeAt[i]
		s.delayed[i]++
	}
	end = start + busy
	s.freeAt[i] = end
	s.reservations[i]++
	s.busyTotal[i] += busy
	s.delayTotal[i] += start - at
	return start, end
}

// FreeAt returns the time resource i next becomes free.
func (s *CalendarStore) FreeAt(i int) Time { return s.freeAt[i] }

// Reservations returns the number of Reserve calls on resource i.
func (s *CalendarStore) Reservations(i int) uint64 { return s.reservations[i] }

// BusyTotal returns the total busy time booked on resource i.
func (s *CalendarStore) BusyTotal(i int) Duration { return s.busyTotal[i] }

// DelayTotal returns the total queueing delay imposed on resource i's
// reservations.
func (s *CalendarStore) DelayTotal(i int) Duration { return s.delayTotal[i] }

// Delayed returns how many reservations found resource i busy.
func (s *CalendarStore) Delayed(i int) uint64 { return s.delayed[i] }

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

// Totals returns the aggregate statistics over all resources.
func (s *CalendarStore) Totals() (reservations uint64, busy, delay Duration, delayed uint64) {
	for i := range s.freeAt {
		reservations += s.reservations[i]
		busy += s.busyTotal[i]
		delay += s.delayTotal[i]
		delayed += s.delayed[i]
	}
	return
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
