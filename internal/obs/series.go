package obs

import (
	"fmt"

	"repro/internal/sim"
)

// Probe is one time-series signal: a named function sampled at the
// collector's interval. Probes must be pure reads of simulation state —
// the collector runs them from kernel events, and a probe that mutated
// state would perturb the run it is observing.
type Probe struct {
	Name string
	Fn   func(now sim.Time) float64
}

// Collector periodically samples a set of probes into ring-buffered
// series, the way the statfx monitor samples concurrency on the real
// machine. When the ring fills, the oldest samples are dropped, so a
// long run keeps its most recent window at full resolution.
type Collector struct {
	k        *sim.Kernel
	interval sim.Duration
	capacity int

	probes []Probe

	times []sim.Time  // ring buffer of sample times
	vals  [][]float64 // vals[p] is probe p's ring buffer
	head  int         // index of the oldest sample
	n     int         // samples currently buffered

	taken   uint64 // total samples taken (including evicted)
	started bool
	stopped bool
}

// NewCollector creates a collector sampling every o.SeriesInterval
// cycles into rings of SeriesCapacity samples per series. It does not
// start sampling until Start.
func NewCollector(k *sim.Kernel, o Options) *Collector {
	interval := o.SeriesInterval
	if interval == 0 {
		interval = DefaultSeriesInterval
	}
	return &Collector{k: k, interval: interval, capacity: SeriesCapacity}
}

// AddProbe registers a probe. All probes must be registered before
// Start.
func (c *Collector) AddProbe(name string, fn func(now sim.Time) float64) {
	if c.started {
		panic("obs: AddProbe after Start")
	}
	c.probes = append(c.probes, Probe{Name: name, Fn: fn})
}

// Start begins sampling. A collector with a non-positive interval or
// no probes never samples.
func (c *Collector) Start() {
	if c == nil || c.started || c.interval <= 0 || len(c.probes) == 0 {
		return
	}
	c.started = true
	c.times = make([]sim.Time, c.capacity)
	c.vals = make([][]float64, len(c.probes))
	for i := range c.vals {
		c.vals[i] = make([]float64, c.capacity)
	}
	c.schedule()
}

func (c *Collector) schedule() {
	c.k.After(c.interval, func() {
		if c.stopped {
			return
		}
		c.sample()
		c.schedule()
	})
}

func (c *Collector) sample() {
	now := c.k.Now()
	slot := (c.head + c.n) % c.capacity
	if c.n == c.capacity {
		c.head = (c.head + 1) % c.capacity // evict the oldest
	} else {
		c.n++
	}
	c.times[slot] = now
	for p, pr := range c.probes {
		c.vals[p][slot] = pr.Fn(now)
	}
	c.taken++
}

// Stop ends sampling. Idempotent.
func (c *Collector) Stop() {
	if c == nil {
		return
	}
	c.stopped = true
}

// Len returns the number of buffered samples.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return c.n
}

// Taken returns the total number of samples taken, including any that
// were evicted from a full ring.
func (c *Collector) Taken() uint64 {
	if c == nil {
		return 0
	}
	return c.taken
}

// Names returns the probe names in registration order.
func (c *Collector) Names() []string {
	if c == nil {
		return nil
	}
	out := make([]string, len(c.probes))
	for i, p := range c.probes {
		out[i] = p.Name
	}
	return out
}

// Times returns the buffered sample times in chronological order.
func (c *Collector) Times() []sim.Time {
	if c == nil {
		return nil
	}
	out := make([]sim.Time, c.n)
	for i := 0; i < c.n; i++ {
		out[i] = c.times[(c.head+i)%c.capacity]
	}
	return out
}

// Series returns the buffered samples of the named probe in
// chronological order, or an error if no such probe exists.
func (c *Collector) Series(name string) ([]float64, error) {
	if c == nil {
		return nil, fmt.Errorf("obs: nil collector")
	}
	for p, pr := range c.probes {
		if pr.Name != name {
			continue
		}
		out := make([]float64, c.n)
		for i := 0; i < c.n; i++ {
			out[i] = c.vals[p][(c.head+i)%c.capacity]
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
