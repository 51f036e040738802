package obs

import (
	"fmt"

	"repro/internal/metricreg"
	"repro/internal/sim"
)

// Collector is a ring of time-series rows: the sample time plus one
// reading of each registry scalar, in registration order. It keeps no
// clock of its own; the statfx sampler's tick calls Sample, so the
// series and the sampled concurrency come from the same instants.
// The ring grows with the run up to its capacity; after that the
// oldest rows are dropped, so a long run keeps its most recent window
// at full resolution.
type Collector struct {
	readers  []metricreg.ScalarReader
	capacity int

	times []sim.Time  // ring buffer of sample times
	vals  [][]float64 // vals[p] is reader p's ring buffer
	head  int         // index of the oldest sample once the ring is full

	taken uint64 // total samples taken (including evicted)
}

// NewCollector creates a collector with one series per reader and
// rings of at most SeriesCapacity samples. Readers must be pure reads
// of simulation state: a reader that mutated state would perturb the
// run it is observing.
func NewCollector(readers []metricreg.ScalarReader) *Collector {
	return newCollector(readers, SeriesCapacity)
}

func newCollector(readers []metricreg.ScalarReader, capacity int) *Collector {
	return &Collector{readers: readers, capacity: capacity, vals: make([][]float64, len(readers))}
}

// Sample appends one row read at virtual time now, evicting the oldest
// row when the ring is full. A nil collector records nothing.
func (c *Collector) Sample(now sim.Time) {
	if c == nil {
		return
	}
	c.taken++
	if len(c.times) < c.capacity {
		c.times = append(c.times, now)
		for p, rd := range c.readers {
			c.vals[p] = append(c.vals[p], rd.Read())
		}
		return
	}
	slot := c.head
	c.head = (c.head + 1) % c.capacity // evict the oldest
	c.times[slot] = now
	for p, rd := range c.readers {
		c.vals[p][slot] = rd.Read()
	}
}

// Len returns the number of buffered samples.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.times)
}

// Taken returns the total number of samples taken, including any that
// were evicted from a full ring.
func (c *Collector) Taken() uint64 {
	if c == nil {
		return 0
	}
	return c.taken
}

// Names returns the series names in registration order.
func (c *Collector) Names() []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.readers))
	for i, rd := range c.readers {
		out[i] = rd.Desc.Name
	}
	return out
}

// Times returns the buffered sample times in chronological order.
func (c *Collector) Times() []sim.Time {
	if c == nil {
		return nil
	}
	out := make([]sim.Time, len(c.times))
	for i := range out {
		out[i] = c.times[(c.head+i)%len(c.times)]
	}
	return out
}

// Series returns the buffered samples of the named series in
// chronological order, or an error if no such series exists.
func (c *Collector) Series(name string) ([]float64, error) {
	if c == nil {
		return nil, fmt.Errorf("obs: nil collector")
	}
	for p, rd := range c.readers {
		if rd.Desc.Name != name {
			continue
		}
		out := make([]float64, len(c.times))
		for i := range out {
			out[i] = c.vals[p][(c.head+i)%len(c.times)]
		}
		return out, nil
	}
	return nil, fmt.Errorf("obs: no series %q (have %v)", name, c.Names())
}

// Mean returns the time-average of the named series over the buffered
// window (samples are equally spaced, so the arithmetic mean is the
// time average).
func (c *Collector) Mean(name string) (float64, error) {
	s, err := c.Series(name)
	if err != nil {
		return 0, err
	}
	if len(s) == 0 {
		return 0, nil
	}
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total / float64(len(s)), nil
}
