package metricreg

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// build registers one metric of every shape with known values — the
// fixture the parity and exporter tests render.
func build() *Registry {
	r := New()
	c := r.Counter("events_total", "events posted", "events")
	c.Add(41)
	c.Inc()
	g := r.Gauge("queue_depth", "jobs waiting", "jobs")
	g.Set(2.5)
	r.CounterFunc("hits_total", "cache hits", "hits", func() float64 { return 7 })
	r.GaugeFunc("live_procs", "live processes", "procs", func() float64 { return 33 })
	u := r.Univariate("os_time_cycles", "time per OS activity", "cycles",
		Axis{Name: "os_category", Label: func(k int64) string { return fmt.Sprintf("cat%d", k) }})
	u.Observe(0, 360000)
	u.Observe(2, 1200)
	u.Observe(0, 1000) // accumulates into the same cell
	b := r.Bivariate("ce_category_cycles", "cycles per CE and category", "cycles",
		Axis{Name: "ce"}, Axis{Name: "category", Label: func(k int64) string { return fmt.Sprintf("c%d", k) }})
	b.Observe(0, 1, 10)
	b.Observe(1, 0, 20)
	b.Observe(0, 0, 5)
	return r
}

func TestRegistrationSemantics(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "x", "events")
	b := r.Counter("x_total", "x", "events")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("re-registered counter not shared: %d", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge", "")
}

func TestDistributionValues(t *testing.T) {
	r := build()
	snap := r.Snapshot()
	u, ok := snap.Get("os_time_cycles")
	if !ok {
		t.Fatal("os_time_cycles missing from snapshot")
	}
	if len(u.Cells) != 2 {
		t.Fatalf("univariate cells = %d, want 2", len(u.Cells))
	}
	if u.Cells[0].Key[0] != 0 || u.Cells[0].Value != 361000 || u.Cells[0].Label[0] != "cat0" {
		t.Fatalf("univariate cell 0 = %+v", u.Cells[0])
	}
	bi, _ := snap.Get("ce_category_cycles")
	want := []Cell{
		{Key: [2]int64{0, 0}, Label: [2]string{"0", "c0"}, Value: 5},
		{Key: [2]int64{0, 1}, Label: [2]string{"0", "c1"}, Value: 10},
		{Key: [2]int64{1, 0}, Label: [2]string{"1", "c0"}, Value: 20},
	}
	if len(bi.Cells) != len(want) {
		t.Fatalf("bivariate cells = %d, want %d", len(bi.Cells), len(want))
	}
	for i, c := range bi.Cells {
		if c != want[i] {
			t.Fatalf("bivariate cell %d = %+v, want %+v", i, c, want[i])
		}
	}
	// Live handle reads agree with the snapshot.
	ub := Univariate{}
	if ub.Value(0) != 0 {
		t.Fatal("inert univariate reads nonzero")
	}
}

// TestSnapshotIsolation: a snapshot must not move when the registry
// does — exporters render a consistent instant.
func TestSnapshotIsolation(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "n", "")
	c.Inc()
	u := r.Univariate("d", "d", "", Axis{Name: "k"})
	u.Observe(1, 1)
	snap := r.Snapshot()
	c.Add(100)
	u.Observe(1, 100)
	if v := snap.Value("n_total"); v != 1 {
		t.Fatalf("snapshot counter moved: %g", v)
	}
	d, _ := snap.Get("d")
	if d.Cells[0].Value != 1 {
		t.Fatalf("snapshot cell moved: %g", d.Cells[0].Value)
	}
}

// parseProm extracts "name{labels} value" samples from a Prometheus
// text exposition into fullLine → value.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad prom line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad prom value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestWritePromTypes: Prometheus types follow what a metric's values
// are. Counters and accumulating distributions render "counter"; gauges
// and level distributions (averages, fractions) render "gauge", so a
// scraper never applies rate() to a level.
func TestWritePromTypes(t *testing.T) {
	r := New()
	r.Counter("n_total", "a count", "events").Add(3)
	r.Gauge("depth", "a level", "jobs").Set(2)
	r.Univariate("time_cycles", "time per key", "cycles", Axis{Name: "k"}).Observe(1, 10)
	r.UnivariateLevel("busy_fraction", "busy fraction per key", "fraction", Axis{Name: "k"}).Observe(1, 0.5)
	r.Bivariate("pair_cycles", "time per key pair", "cycles", Axis{Name: "x"}, Axis{Name: "y"}).Observe(1, 2, 4)
	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"n_total": "counter", "depth": "gauge", "time_cycles": "counter",
		"busy_fraction": "gauge", "pair_cycles": "counter",
	} {
		if line := "# TYPE " + PromName(name) + " " + want + "\n"; !strings.Contains(b.String(), line) {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
}

// TestExporterParity is the registry's core guarantee: every metric
// registered once appears in the Prometheus, JSON, and CSV exports
// with identical values at snapshot time.
func TestExporterParity(t *testing.T) {
	r := build()
	snap := r.Snapshot()

	var promB, jsonB, csvB strings.Builder
	if err := WriteProm(&promB, snap, map[string]string{"service": "test"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonB, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvB, snap); err != nil {
		t.Fatal(err)
	}

	prom := parseProm(t, promB.String())

	var doc struct {
		Metrics []struct {
			Name  string   `json:"name"`
			Type  string   `json:"type"`
			Value *float64 `json:"value"`
			Cells []struct {
				Keys   []int64  `json:"keys"`
				Labels []string `json:"labels"`
				Value  float64  `json:"value"`
			} `json:"cells"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(jsonB.String()), &doc); err != nil {
		t.Fatal(err)
	}
	jsonByName := map[string]int{}
	for i, m := range doc.Metrics {
		jsonByName[m.Name] = i
	}

	rd := csv.NewReader(strings.NewReader(csvB.String()))
	rows, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// metric,type,unit,key1,key2,value
	csvVals := map[string]float64{}
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad csv value %q: %v", row[5], err)
		}
		csvVals[row[0]+"|"+row[3]+"|"+row[4]] = v
	}

	if len(doc.Metrics) != r.Len() {
		t.Fatalf("JSON exports %d metrics, registry has %d", len(doc.Metrics), r.Len())
	}
	for _, m := range snap {
		jm := doc.Metrics[jsonByName[m.Name]]
		if jm.Type != m.Type.String() {
			t.Fatalf("%s: JSON type %s, want %s", m.Name, jm.Type, m.Type)
		}
		if m.Type.scalar() {
			key := PromName(m.Name) + `{service="test"}`
			pv, ok := prom[key]
			if !ok {
				t.Fatalf("%s: missing from Prometheus export (%v)", key, prom)
			}
			if jm.Value == nil {
				t.Fatalf("%s: missing JSON value", m.Name)
			}
			cv, ok := csvVals[m.Name+"||"]
			if !ok {
				t.Fatalf("%s: missing from CSV export", m.Name)
			}
			if pv != m.Value || *jm.Value != m.Value || cv != m.Value {
				t.Fatalf("%s: prom=%g json=%g csv=%g want %g", m.Name, pv, *jm.Value, cv, m.Value)
			}
			continue
		}
		if len(jm.Cells) != len(m.Cells) {
			t.Fatalf("%s: JSON cells %d, want %d", m.Name, len(jm.Cells), len(m.Cells))
		}
		for i, c := range m.Cells {
			// Prometheus sample: axis labels then constant labels.
			lb := fmt.Sprintf("{%s=%q", labelName(m.AxisNames[0]), c.Label[0])
			if m.Type == TypeBivariate {
				lb += fmt.Sprintf(",%s=%q", labelName(m.AxisNames[1]), c.Label[1])
			}
			lb += `,service="test"}`
			pv, ok := prom[PromName(m.Name)+lb]
			if !ok {
				t.Fatalf("%s cell %v: missing from Prometheus export\n%s", m.Name, c, promB.String())
			}
			cv, ok := csvVals[m.Name+"|"+c.Label[0]+"|"+c.Label[1]]
			if !ok {
				t.Fatalf("%s cell %v: missing from CSV export", m.Name, c)
			}
			if pv != c.Value || jm.Cells[i].Value != c.Value || cv != c.Value {
				t.Fatalf("%s cell %v: prom=%g json=%g csv=%g want %g",
					m.Name, c.Key, pv, jm.Cells[i].Value, cv, c.Value)
			}
		}
	}
}

// TestDisabledRegistryZeroAlloc pins the zero-cost-when-disabled
// contract: instruments from a nil registry must not allocate or do
// atomic work on any operation.
func TestDisabledRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("n_total", "n", "")
	g := r.Gauge("g", "g", "")
	u := r.Univariate("u", "u", "", Axis{Name: "k"})
	b := r.Bivariate("b", "b", "", Axis{Name: "x"}, Axis{Name: "y"})
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		u.Observe(1, 2)
		b.Observe(1, 2, 3)
		r.CounterFunc("f", "f", "", nil)
		if r.Snapshot() != nil || r.ScalarReaders() != nil || r.Len() != 0 {
			t.Fatal("nil registry is not inert")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled registry path allocates %.1f per op, want 0", allocs)
	}
}

// TestEnabledScalarZeroAlloc: the armed counter/gauge hot path is a
// single atomic op — also allocation-free.
func TestEnabledScalarZeroAlloc(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "n", "")
	g := r.Gauge("g", "g", "")
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(2.5)
	})
	if allocs != 0 {
		t.Fatalf("enabled scalar path allocates %.1f per op, want 0", allocs)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	c := r.Counter("ops_total", "ops", "")
	u := r.Univariate("sizes", "sizes", "", Axis{Name: "size"})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
				u.Observe(int64(j%4), 1)
				_ = r.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 800 {
		t.Fatalf("counter = %d, want 800", c.Value())
	}
	total := 0.0
	for k := int64(0); k < 4; k++ {
		total += u.Value(k)
	}
	if total != 800 {
		t.Fatalf("univariate total = %g, want 800", total)
	}
}

func TestScalarReaders(t *testing.T) {
	r := build()
	readers := r.ScalarReaders()
	if len(readers) != 4 {
		t.Fatalf("readers = %d, want 4 (distributions skipped)", len(readers))
	}
	byName := map[string]ScalarReader{}
	for _, rd := range readers {
		byName[rd.Desc.Name] = rd
	}
	if v := byName["events_total"].Read(); v != 42 {
		t.Fatalf("events_total reader = %g, want 42", v)
	}
	if v := byName["live_procs"].Read(); v != 33 {
		t.Fatalf("live_procs reader = %g, want 33", v)
	}
}
