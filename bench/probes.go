package main

import (
	"os"

	cedar "repro"
	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/gmem"
	"repro/internal/network"
	"repro/internal/perfect"
	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int64

// runProbes times each layer's unit cost by calling its public
// functions directly: memory and network probes on a fresh machine of
// cfg, at the run's mean words per access.
func runProbes(e *env, tr *tracer, cfg arch.Config, words int) metricSet {
	m := metricSet{}
	scale := 1
	if e.cfg.quick {
		scale = 20
	}
	// probe times fn, which does n units of work, and reports the time
	// per unit in the given unit (per is the unit's count per second).
	probe := func(name, unit string, per float64, n int, fn func(n int)) {
		n = max(n/scale, 1)
		d := tr.span("probe."+name, 0, func(int) { fn(n) })
		m.set(name, d.Seconds()/float64(n)*per, unit, n)
	}
	costs := arch.DefaultCosts()

	probe("sim.proc_switch_ns", "ns", 1e9, 400_000, func(n int) {
		// Two processes alternating Hold(1): every event is one switch.
		k := sim.NewKernel(1)
		for p := 0; p < 2; p++ {
			k.Spawn("probe", func(p *sim.Proc) {
				for i := 0; i < n/2; i++ {
					p.Hold(1)
				}
			})
		}
		k.RunAll()
	})
	probe("sim.callback_event_ns", "ns", 1e9, 2_000_000, func(n int) {
		k := sim.NewKernel(1)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				k.After(1, tick)
			}
		}
		k.After(1, tick)
		k.RunAll()
	})
	probe("sim.calendar_reserve_ns", "ns", 1e9, 4_000_000, func(n int) {
		s := sim.NewCalendarStore(cfg.GMModules)
		for i := 0; i < n; i++ {
			_, end := s.Reserve(i*7919%cfg.GMModules, sim.Time(i), 4)
			sink += int64(end)
		}
	})
	probe("gmem.access_ns", "ns", 1e9, 200_000, func(n int) {
		mem := gmem.New(cfg, costs)
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			done, _ := mem.Access(at, cfg.CEByGlobal(i%cfg.CEs()), int64(i)*7919, words)
			sink += int64(done)
			at++
		}
	})
	probe("network.transit_ns", "ns", 1e9, 1_000_000, func(n int) {
		net := network.NewPair(cfg, costs)
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			arrive, _ := net.Transit(at, cfg.CEByGlobal(i%cfg.CEs()), i*7919%cfg.GMModules, words)
			sink += int64(arrive)
			at++
		}
	})
	probe("cluster.new_machine_ms", "ms", 1e3, 200, func(n int) {
		for i := 0; i < n; i++ {
			o := xylem.New(cluster.NewMachine(sim.NewKernel(int64(i)), cfg, costs))
			sink += int64(len(o.M.Clusters))
		}
	})

	// The recording probes render a finished run of the same machine.
	app, err := e.resolve("FLO52")
	if err != nil {
		e.fail("probe run: %v", err)
		return m
	}
	app = app.Scaled(perfect.ScaleFactorFor(cfg.CEs())).WithSteps(1)
	run, err := cedar.SimulateRunErr(app, cfg, cedar.Options{})
	if err != nil {
		e.fail("probe run: %v", err)
		return m
	}
	probe("metricreg.snapshot_ms", "ms", 1e3, 500, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(len(run.Metrics().Snapshot()))
		}
	})
	text := run.StatfxText()
	probe("statfx.text_ms", "ms", 1e3, 500, func(n int) {
		for i := 0; i < n; i++ {
			sink += int64(len(run.StatfxText()))
		}
	})
	probe("scenario.load_ms", "ms", 1e3, 200, func(n int) {
		for i := 0; i < n; i++ {
			scs, err := scenario.LoadDir(e.path("testdata/scenarios"))
			if err != nil {
				e.fail("probe: %v", err)
				return
			}
			sink += int64(len(scs))
		}
	})

	dir, err := os.MkdirTemp(e.tmp, "probe-cache-")
	if err != nil {
		e.fail("probe cache: %v", err)
		return m
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir)
	if err != nil {
		e.fail("probe cache: %v", err)
		return m
	}
	key := func(i int) resultcache.Key {
		return resultcache.Key{Kind: "simulate", App: "FLO52", Config: cfg.Name, Seed: int64(i + 1), Version: "probe"}
	}
	const entries = 400
	probe("resultcache.put_us", "us", 1e6, entries, func(n int) {
		for i := 0; i < n; i++ {
			if err := cache.Put(key(i), []byte(text)); err != nil {
				e.fail("probe cache put: %v", err)
				return
			}
		}
	})
	probe("resultcache.get_us", "us", 1e6, entries, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := cache.Get(key(i)); !ok {
				e.fail("probe cache get: %+v missing", key(i))
				return
			}
		}
	})
	return m
}
