// Package metricreg is the central metric directory: every measurement
// the reproduction exposes — statfx concurrency, Figure-3 breakdown rows,
// hpm event counts, the OS activity table, the sweep service's
// operational counters — registers here exactly once, with a name, a
// help string, a unit, and a type, and is then included in every
// exporter automatically (Prometheus text exposition, JSON, CSV, and —
// for live scalar metrics — the obs time-series collector).
//
// The design follows the metric directory of scalable-flow-analyzer:
// one registry file owns registration and the hook lists, typed metric
// implementations cover the three measurement shapes the analysis
// needs — a simple counter, a univariate distribution (value per key),
// and a bivariate distribution (value per key pair) — and the export
// file renders a registry snapshot into each output format, so an
// exporter can never disagree with another about what exists or what
// its value was at snapshot time.
//
// Zero-cost-when-disabled is a contract, inherited from the hpm
// monitor: a nil *Registry is valid, hands out
// inert zero-value instruments, and every instrument method on a
// disarmed handle is a single pointer comparison — no allocation, no
// atomic traffic. The disabled path is asserted at 0 allocs/op by the
// package tests and benchmarks, the same way the PR 5 kernel
// benchmarks pin the event core.
//
// All instruments are safe for concurrent use: counters and gauges are
// single atomics, distributions take a per-metric mutex on the observe
// path, and Snapshot gives a consistent point-in-time view to render
// from.
package metricreg

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// floatToBits / floatFromBits move gauge values through the shared
// atomic word.
func floatToBits(v float64) uint64   { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Type classifies a metric.
type Type int

const (
	// TypeCounter is a monotonically increasing scalar (event counts,
	// dropped records, cache hits).
	TypeCounter Type = iota
	// TypeGauge is a scalar that can move both ways (queue depth,
	// sampled concurrency, drain duration).
	TypeGauge
	// TypeUnivariate is a value per integer key (time per OS category,
	// events per hpm event id).
	TypeUnivariate
	// TypeBivariate is a value per integer key pair (cycles per
	// CE × accounting category).
	TypeBivariate
)

// String implements fmt.Stringer with the exporters' vocabulary.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeUnivariate:
		return "univariate"
	case TypeBivariate:
		return "bivariate"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// scalar reports whether the type carries one value (as opposed to a
// distribution of cells).
func (t Type) scalar() bool { return t == TypeCounter || t == TypeGauge }

// Desc describes a registered metric.
type Desc struct {
	Name string // registry name; exporters sanitize per format
	Help string // one-line human description
	Unit string // "cycles", "events", "jobs", "bytes", "seconds", ...
	Type Type
	// Level marks a distribution whose cells are levels that can move
	// both ways (averages, fractions) rather than accumulations; see
	// UnivariateLevel.
	Level bool
}

// Axis names one key dimension of a distribution. Label, when set,
// renders a key value for humans (a category or event name); nil keys
// render as decimal integers.
type Axis struct {
	Name  string
	Label func(int64) string
}

// labelFor renders one key value on this axis.
func (a Axis) labelFor(k int64) string {
	if a.Label != nil {
		return a.Label(k)
	}
	return strconv.FormatInt(k, 10)
}

// metric is one registry entry. Scalars live in bits (counters as
// uint64, gauges as float64 bits) or are computed by fn at read time;
// distribution cells live in cells under mu.
type metric struct {
	desc Desc
	axes [2]Axis

	bits atomic.Uint64
	fn   func() float64

	mu    sync.Mutex
	cells map[[2]int64]float64
}

// read returns a scalar metric's current value.
func (m *metric) read() float64 {
	if m.fn != nil {
		return m.fn()
	}
	if m.desc.Type == TypeCounter {
		return float64(m.bits.Load())
	}
	return floatFromBits(m.bits.Load())
}

// Registry is the central metric directory. A nil *Registry is valid:
// it hands out inert instruments and snapshots to nothing.
type Registry struct {
	mu    sync.Mutex
	order []*metric
	byN   map[string]*metric
}

// New returns an empty registry.
func New() *Registry { return &Registry{byN: map[string]*metric{}} }

// register adds (or returns the existing) metric under name.
// Re-registering with a different type panics: that is a programming
// error, not a runtime condition. Returns nil on a nil registry.
func (r *Registry) register(desc Desc, axes [2]Axis, fn func() float64) *metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byN[desc.Name]; ok {
		if m.desc.Type != desc.Type {
			panic(fmt.Sprintf("metricreg: metric %s re-registered as %s (was %s)",
				desc.Name, desc.Type, m.desc.Type))
		}
		return m
	}
	m := &metric{desc: desc, axes: axes, fn: fn}
	if !desc.Type.scalar() {
		m.cells = map[[2]int64]float64{}
	}
	r.order = append(r.order, m)
	r.byN[desc.Name] = m
	return m
}

// Counter registers (or fetches) a monotonically increasing scalar.
func (r *Registry) Counter(name, help, unit string) Counter {
	return Counter{r.register(Desc{Name: name, Help: help, Unit: unit, Type: TypeCounter}, [2]Axis{}, nil)}
}

// Gauge registers (or fetches) an up-and-down scalar.
func (r *Registry) Gauge(name, help, unit string) Gauge {
	return Gauge{r.register(Desc{Name: name, Help: help, Unit: unit, Type: TypeGauge}, [2]Axis{}, nil)}
}

// CounterFunc registers a counter whose value some other structure
// already owns, read at snapshot time. fn must be safe to call
// concurrently and must never decrease.
func (r *Registry) CounterFunc(name, help, unit string, fn func() float64) {
	r.register(Desc{Name: name, Help: help, Unit: unit, Type: TypeCounter}, [2]Axis{}, fn)
}

// GaugeFunc registers a gauge computed at snapshot time.
func (r *Registry) GaugeFunc(name, help, unit string, fn func() float64) {
	r.register(Desc{Name: name, Help: help, Unit: unit, Type: TypeGauge}, [2]Axis{}, fn)
}

// Univariate registers (or fetches) a univariate distribution keyed on
// the given axis.
func (r *Registry) Univariate(name, help, unit string, key Axis) Univariate {
	return Univariate{r.register(Desc{Name: name, Help: help, Unit: unit, Type: TypeUnivariate},
		[2]Axis{key, {}}, nil)}
}

// UnivariateLevel is Univariate for cells that are levels rather than
// accumulations, such as an average or a busy fraction: the Prometheus
// exporter types them as gauges.
func (r *Registry) UnivariateLevel(name, help, unit string, key Axis) Univariate {
	return Univariate{r.register(Desc{Name: name, Help: help, Unit: unit, Type: TypeUnivariate, Level: true},
		[2]Axis{key, {}}, nil)}
}

// Bivariate registers (or fetches) a bivariate distribution keyed on
// the given axis pair.
func (r *Registry) Bivariate(name, help, unit string, x, y Axis) Bivariate {
	return Bivariate{r.register(Desc{Name: name, Help: help, Unit: unit, Type: TypeBivariate},
		[2]Axis{x, y}, nil)}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// Counter is a monotonically increasing scalar instrument. The zero
// value is inert.
type Counter struct{ m *metric }

// Add increments the counter by n.
func (c Counter) Add(n uint64) {
	if c.m != nil {
		c.m.bits.Add(n)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count (0 when inert).
func (c Counter) Value() uint64 {
	if c.m == nil {
		return 0
	}
	return c.m.bits.Load()
}

// Gauge is an up-and-down scalar instrument. The zero value is inert.
type Gauge struct{ m *metric }

// Set stores v.
func (g Gauge) Set(v float64) {
	if g.m != nil {
		g.m.bits.Store(floatToBits(v))
	}
}

// Value returns the stored value (0 when inert).
func (g Gauge) Value() float64 {
	if g.m == nil {
		return 0
	}
	return floatFromBits(g.m.bits.Load())
}

// Univariate is a value-per-key distribution instrument. The zero
// value is inert.
type Univariate struct{ m *metric }

// Observe adds delta to the cell at key.
func (u Univariate) Observe(key int64, delta float64) {
	if u.m == nil {
		return
	}
	u.m.mu.Lock()
	u.m.cells[[2]int64{key, 0}] += delta
	u.m.mu.Unlock()
}

// Value returns the cell at key (0 when absent or inert).
func (u Univariate) Value(key int64) float64 {
	if u.m == nil {
		return 0
	}
	u.m.mu.Lock()
	defer u.m.mu.Unlock()
	return u.m.cells[[2]int64{key, 0}]
}

// Bivariate is a value-per-key-pair distribution instrument. The zero
// value is inert.
type Bivariate struct{ m *metric }

// Observe adds delta to the cell at (x, y).
func (b Bivariate) Observe(x, y int64, delta float64) {
	if b.m == nil {
		return
	}
	b.m.mu.Lock()
	b.m.cells[[2]int64{x, y}] += delta
	b.m.mu.Unlock()
}

// Value returns the cell at (x, y) (0 when absent or inert).
func (b Bivariate) Value(x, y int64) float64 {
	if b.m == nil {
		return 0
	}
	b.m.mu.Lock()
	defer b.m.mu.Unlock()
	return b.m.cells[[2]int64{x, y}]
}

// Cell is one distribution entry in a snapshot: the integer keys, the
// axis-rendered labels, and the value.
type Cell struct {
	Key   [2]int64
	Label [2]string
	Value float64
}

// MetricSnapshot is one metric's state at snapshot time.
type MetricSnapshot struct {
	Desc
	AxisNames [2]string
	Value     float64 // scalar types
	Cells     []Cell  // distribution types, sorted by key
}

// Snapshot is a point-in-time view of a whole registry, in
// registration order. Every exporter renders from a Snapshot, which is
// what makes exporter parity structural: the same names, the same
// values, read once.
type Snapshot []MetricSnapshot

// Snapshot captures every registered metric. Pull functions are
// evaluated now; distribution cells are copied and sorted. A nil
// registry snapshots to nil.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.order))
	copy(metrics, r.order)
	r.mu.Unlock()

	out := make(Snapshot, 0, len(metrics))
	for _, m := range metrics {
		ms := MetricSnapshot{Desc: m.desc,
			AxisNames: [2]string{m.axes[0].Name, m.axes[1].Name}}
		if m.desc.Type.scalar() {
			ms.Value = m.read()
		} else {
			m.mu.Lock()
			ms.Cells = make([]Cell, 0, len(m.cells))
			for k, v := range m.cells {
				ms.Cells = append(ms.Cells, Cell{
					Key:   k,
					Label: [2]string{m.axes[0].labelFor(k[0]), m.axes[1].labelFor(k[1])},
					Value: v,
				})
			}
			m.mu.Unlock()
			sort.Slice(ms.Cells, func(i, j int) bool {
				if ms.Cells[i].Key[0] != ms.Cells[j].Key[0] {
					return ms.Cells[i].Key[0] < ms.Cells[j].Key[0]
				}
				return ms.Cells[i].Key[1] < ms.Cells[j].Key[1]
			})
			if ms.Desc.Type == TypeUnivariate {
				for i := range ms.Cells {
					ms.Cells[i].Label[1] = ""
				}
			}
		}
		out = append(out, ms)
	}
	return out
}

// Get returns the named metric's snapshot entry.
func (s Snapshot) Get(name string) (MetricSnapshot, bool) {
	for _, m := range s {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSnapshot{}, false
}

// Value returns the named scalar metric's value, or 0 when absent —
// the forgiving read for dashboards and job records. Callers that
// must not miss use Get.
func (s Snapshot) Value(name string) float64 {
	m, ok := s.Get(name)
	if !ok {
		return 0
	}
	return m.Value
}

// Scalars returns every counter and gauge as a name → value map — the
// compact form the sweep service attaches to finished job records.
func (s Snapshot) Scalars() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range s {
		if m.Type.scalar() {
			out[m.Name] = m.Value
		}
	}
	return out
}

// ScalarReader is a live read hook for one scalar metric — the bridge
// that lets the statfx tick sample registry metrics into the obs
// series ring during a run.
type ScalarReader struct {
	Desc Desc
	Read func() float64
}

// ScalarReaders returns a live reader per scalar metric, in
// registration order. Distribution metrics have no single value to
// sample and are skipped.
func (r *Registry) ScalarReaders() []ScalarReader {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.order))
	copy(metrics, r.order)
	r.mu.Unlock()
	var out []ScalarReader
	for _, m := range metrics {
		if !m.desc.Type.scalar() {
			continue
		}
		m := m
		out = append(out, ScalarReader{Desc: m.desc, Read: m.read})
	}
	return out
}
