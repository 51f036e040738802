package network

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/sim"
)

func pair() *Pair { return NewPair(arch.Cedar32, arch.DefaultCosts()) }

func TestFwdRouteDistinctModulesDistinctFinalPorts(t *testing.T) {
	p := pair()
	ce := arch.CEID{Cluster: 0, Local: 0}
	seen := map[int]bool{}
	for m := 0; m < 32; m++ {
		r := p.Forward.fwdRoute(ce, m)
		if r[1] != m {
			t.Fatalf("module %d routed to final port %d", m, r[1])
		}
		if seen[r[1]] {
			t.Fatalf("final port %d reused", r[1])
		}
		seen[r[1]] = true
	}
}

func TestFwdRouteClusterOwnsStage0Switch(t *testing.T) {
	p := pair()
	cfg := arch.Cedar32
	for g := 0; g < cfg.CEs(); g++ {
		id := cfg.CEByGlobal(g)
		for m := 0; m < 32; m++ {
			r := p.Forward.fwdRoute(id, m)
			if sw := r[0] / cfg.SwitchDegree; sw != id.Cluster {
				t.Fatalf("CE %v module %d uses stage-0 switch %d, want %d", id, m, sw, id.Cluster)
			}
		}
	}
}

func TestRevRouteReachesCE(t *testing.T) {
	p := pair()
	cfg := arch.Cedar32
	for g := 0; g < cfg.CEs(); g++ {
		id := cfg.CEByGlobal(g)
		r := p.Return.revRoute(17, id)
		if want := id.Cluster*cfg.SwitchDegree + id.Local; r[1] != want {
			t.Fatalf("CE %v final return port %d, want %d", id, r[1], want)
		}
	}
}

func TestTransitUncontendedLatency(t *testing.T) {
	p := pair()
	cost := arch.DefaultCosts()
	ce := arch.CEID{Cluster: 1, Local: 3}
	arrive, queued := p.Transit(100, ce, 9, 1)
	if queued != 0 {
		t.Fatalf("uncontended transit queued %d", queued)
	}
	// Two stages: each costs port occupancy (1 word) + stage latency.
	want := sim.Time(100) + 2*sim.Duration(cost.PortCyclesPerWord+cost.StageLatency)
	if arrive != want {
		t.Fatalf("arrive = %d, want %d", arrive, want)
	}
}

func TestTransitContentionOnSharedPort(t *testing.T) {
	p := pair()
	ce0 := arch.CEID{Cluster: 0, Local: 0}
	ce1 := arch.CEID{Cluster: 0, Local: 1}
	// Same cluster, same target module: both messages traverse the
	// same stage-0 output port and the same stage-1 port.
	a1, q1 := p.Transit(0, ce0, 5, 64)
	a2, q2 := p.Transit(0, ce1, 5, 64)
	if q1 != 0 {
		t.Fatalf("first message queued %d", q1)
	}
	if q2 == 0 {
		t.Fatal("second message saw no contention on shared route")
	}
	if a2 <= a1 {
		t.Fatalf("second arrival %d not after first %d", a2, a1)
	}
}

func TestTransitNoContentionOnDisjointRoutes(t *testing.T) {
	p := pair()
	// Different clusters, different stage-1 switches (modules 0 and 8).
	a, q1 := p.Transit(0, arch.CEID{Cluster: 0, Local: 0}, 0, 64)
	b, q2 := p.Transit(0, arch.CEID{Cluster: 1, Local: 0}, 8, 64)
	if q1 != 0 || q2 != 0 {
		t.Fatalf("disjoint routes queued %d, %d", q1, q2)
	}
	if a != b {
		t.Fatalf("disjoint equal-size transits differ: %d vs %d", a, b)
	}
}

func TestHotSpotDetection(t *testing.T) {
	p := pair()
	cfg := arch.Cedar32
	// All 32 CEs hammer module 7 — the Pfister/Norton hot spot.
	for g := 0; g < cfg.CEs(); g++ {
		p.Transit(0, cfg.CEByGlobal(g), 7, 16)
	}
	name, delay := p.MaxPortDelay()
	if delay == 0 {
		t.Fatal("hot spot produced no port delay")
	}
	if name == "" {
		t.Fatal("hot port unnamed")
	}
	st := p.Stats()
	if st.DelayTotal < delay {
		t.Fatalf("aggregate delay %d < max port delay %d", st.DelayTotal, delay)
	}
}

// randomValidConfigs samples the parametric config space: every
// combination drawn passes arch.Config.Validate, across switch
// degrees, stage counts, module counts, and cluster shapes.
func randomValidConfigs(rnd *rand.Rand, n int) []arch.Config {
	degrees := []int{2, 4, 8, 16, 32}
	gms := []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	var out []arch.Config
	for len(out) < n {
		c := arch.Config{
			Name:          "random",
			SwitchDegree:  degrees[rnd.Intn(len(degrees))],
			NetStages:     1 + rnd.Intn(3),
			GMModules:     gms[rnd.Intn(len(gms))],
			Clusters:      1 + rnd.Intn(16),
			CEsPerCluster: 1 + rnd.Intn(16),
		}
		if c.Validate() == nil {
			out = append(out, c)
		}
	}
	return out
}

// TestRoutesInBoundsForRandomValidConfigs is the routing-invariant
// property test: for every valid config the router can be handed, every
// (CE, module) forward and return route has exactly NetStages hops and
// every hop's port index is inside the stage width — Validate's
// constraints are sufficient for the generalized route builder.
func TestRoutesInBoundsForRandomValidConfigs(t *testing.T) {
	rnd := rand.New(rand.NewSource(1994))
	cost := arch.DefaultCosts()
	for _, cfg := range randomValidConfigs(rnd, 60) {
		p := NewPair(cfg, cost)
		width := cfg.NetWidth()
		check := func(kind string, route []int) {
			t.Helper()
			if len(route) != cfg.NetStages {
				t.Fatalf("%+v: %s route %v has %d hops, want %d", cfg, kind, route, len(route), cfg.NetStages)
			}
			for s, port := range route {
				if port < 0 || port >= width {
					t.Fatalf("%+v: %s route %v stage %d port %d outside width %d", cfg, kind, route, s, port, width)
				}
			}
		}
		for g := 0; g < cfg.CEs(); g++ {
			ce := cfg.CEByGlobal(g)
			for m := 0; m < cfg.GMModules; m++ {
				check("fwd", p.Forward.fwdRoute(ce, m))
				check("rev", p.Return.revRoute(m, ce))
			}
			// The vector fan-out helpers obey the same bounds.
			for grp := 0; grp < cfg.Groups(); grp++ {
				if port := p.FwdStage0Port(ce, grp); port < 0 || port >= width {
					t.Fatalf("%+v: FwdStage0Port(%v,%d) = %d outside width %d", cfg, ce, grp, port, width)
				}
				for _, port := range p.RetGroupPorts(grp, ce) {
					if port < 0 || port >= width {
						t.Fatalf("%+v: RetGroupPorts(%d,%v) port %d outside width %d", cfg, grp, ce, port, width)
					}
				}
			}
			if port := p.RetCEPort(ce); port < 0 || port >= width {
				t.Fatalf("%+v: RetCEPort(%v) = %d outside width %d", cfg, ce, port, width)
			}
		}
		for m := 0; m < cfg.GMModules; m++ {
			for _, port := range p.FwdModulePorts(m) {
				if port < 0 || port >= width {
					t.Fatalf("%+v: FwdModulePorts(%d) port %d outside width %d", cfg, m, port, width)
				}
			}
		}
	}
}

// TestTwoStageRoutesMatchLegacyCedar is the seed-regression check: on
// any two-stage member of the family the generalized route builder must
// produce exactly the routes the original hard-coded Cedar
// implementation used — [cluster*d + module/d, module] forward and
// [(module/d)*d + cluster, cluster*d + local] back.
func TestTwoStageRoutesMatchLegacyCedar(t *testing.T) {
	cost := arch.DefaultCosts()
	for _, cfg := range []arch.Config{arch.Cedar32, arch.Cedar4, arch.Scaled64, arch.Scaled256} {
		p := NewPair(cfg, cost)
		d := cfg.SwitchDegree
		for g := 0; g < cfg.CEs(); g++ {
			ce := cfg.CEByGlobal(g)
			for m := 0; m < cfg.GMModules; m++ {
				fwd := p.Forward.fwdRoute(ce, m)
				if fwd[0] != ce.Cluster*d+m/d || fwd[1] != m {
					t.Fatalf("%s: fwd route %v for %v->m%d, want [%d %d]",
						cfg.Name, fwd, ce, m, ce.Cluster*d+m/d, m)
				}
				rev := p.Return.revRoute(m, ce)
				if rev[0] != (m/d)*d+ce.Cluster || rev[1] != ce.Cluster*d+ce.Local {
					t.Fatalf("%s: rev route %v for m%d->%v, want [%d %d]",
						cfg.Name, rev, m, ce, (m/d)*d+ce.Cluster, ce.Cluster*d+ce.Local)
				}
			}
		}
	}
}

// TestThreeStageRoutesConverge exercises k > 2: on Deep64, messages
// from different clusters to the same module must share every port from
// stage 1 on (the delta-network funnel that makes tree saturation
// possible), while distinct modules keep distinct final ports.
func TestThreeStageRoutesConverge(t *testing.T) {
	cfg := arch.Deep64
	p := NewPair(cfg, arch.DefaultCosts())
	a := p.Forward.fwdRoute(arch.CEID{Cluster: 0, Local: 0}, 137)
	b := p.Forward.fwdRoute(arch.CEID{Cluster: 5, Local: 3}, 137)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("route lengths %d, %d, want 3", len(a), len(b))
	}
	if a[0] == b[0] {
		t.Fatalf("different clusters share stage-0 port %d", a[0])
	}
	if a[1] != b[1] || a[2] != b[2] {
		t.Fatalf("routes to one module diverge after stage 0: %v vs %v", a, b)
	}
	if a[2] != 137 {
		t.Fatalf("final port %d, want the module 137", a[2])
	}
}

// TestQueuedCyclesMatchCalendarDelays is the contention-conservation
// check: the queueing each transit reports must in aggregate equal the
// delay the port calendars recorded, and the occupancy booked on the
// calendars must equal the traffic's port-cycles across all stages —
// no queueing is invented or lost in route traversal.
func TestQueuedCyclesMatchCalendarDelays(t *testing.T) {
	cost := arch.DefaultCosts()
	for _, cfg := range []arch.Config{arch.Cedar32, arch.Scaled64, arch.Deep64} {
		p := NewPair(cfg, cost)
		rnd := rand.New(rand.NewSource(7))
		var queued sim.Duration
		var words int64
		for i := 0; i < 400; i++ {
			ce := cfg.CEByGlobal(rnd.Intn(cfg.CEs()))
			mod := rnd.Intn(cfg.GMModules)
			w := 1 + rnd.Intn(64)
			_, qf := p.Transit(sim.Time(rnd.Intn(50)), ce, mod, w)
			_, qr := p.TransitBack(sim.Time(rnd.Intn(50)), mod, ce, w)
			queued += qf + qr
			words += int64(w)
		}
		st := p.Stats()
		if st.DelayTotal != queued {
			t.Fatalf("%s: transits reported %d queued cycles, calendars %d",
				cfg.Name, queued, st.DelayTotal)
		}
		// Each word occupies one port per stage in each direction.
		wantBusy := sim.Duration(2 * words * int64(cfg.NetStages) * cost.PortCyclesPerWord)
		if st.BusyTotal != wantBusy {
			t.Fatalf("%s: calendar occupancy %d cycles, traffic implies %d",
				cfg.Name, st.BusyTotal, wantBusy)
		}
	}
}

func TestQuickTransitMonotone(t *testing.T) {
	// Arrival is never before departure plus the zero-load latency,
	// and queued is never negative.
	cost := arch.DefaultCosts()
	minLatency := 2 * sim.Duration(cost.PortCyclesPerWord+cost.StageLatency)
	f := func(ces []uint8, words uint8) bool {
		p := pair()
		w := int(words%128) + 1
		for _, raw := range ces {
			ce := arch.Cedar32.CEByGlobal(int(raw) % 32)
			mod := int(raw) % 32
			arrive, queued := p.Transit(1000, ce, mod, w)
			if queued < 0 || arrive < 1000+minLatency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReserveFwdRunMatchesPerSlice: booking a run of module slices
// through the forward stages into the modules leaves every forward
// port, every module and the last module's finish exactly as one
// ReserveFwdSubtree walk and one module Reserve per slice do — over
// every family member and runs that start inside a shared inner-stage
// port, on a healthy network (the fused last-stage pass), with
// degraded ports on every forward stage after stage 0, and with
// inflated modules.
func TestReserveFwdRunMatchesPerSlice(t *testing.T) {
	cost := arch.DefaultCosts()
	for _, cfg := range arch.Families() {
		for _, c := range []struct {
			name             string
			degrade, inflate bool
		}{{"healthy", false, false}, {"ports", true, false}, {"inflated", false, true}} {
			got, want := NewPair(cfg, cost), NewPair(cfg, cost)
			gotMods, wantMods := sim.NewCalendarStore(cfg.GMModules), sim.NewCalendarStore(cfg.GMModules)
			if c.degrade {
				for s := 1; s < cfg.NetStages; s++ {
					for _, p := range []*Pair{got, want} {
						p.Forward.DegradePort(s, 0, 4)
						p.Forward.DegradePort(s, 1, 1.3)
					}
				}
			}
			var inflate []float64
			if c.inflate {
				inflate = make([]float64, cfg.GMModules)
				inflate[0], inflate[cfg.GMModules/2] = 2.5, 1.3
			}
			rnd := rand.New(rand.NewSource(11))
			times := make([]sim.Time, cfg.GMModules)
			for i := 0; i < 300; i++ {
				mod := rnd.Intn(cfg.GMModules)
				n := 1 + rnd.Intn(cfg.GMModules-mod)
				words, nLong := 1+rnd.Intn(4), rnd.Intn(n+1)
				modShort := sim.Duration(4 + rnd.Intn(4))
				at := sim.Time(rnd.Intn(40 * (i + 1)))
				run := times[:n]
				for j := range run {
					run[j] = at
				}
				last := got.ReserveFwdRun(mod, run, words, nLong, gotMods, modShort, modShort+1, inflate)
				var wantLast sim.Time
				for j := 0; j < n; j++ {
					w, busy := words, modShort
					if j < nLong {
						w, busy = w+1, busy+1
					}
					if inflate != nil && inflate[mod+j] > 1 {
						busy = sim.Duration(float64(busy)*inflate[mod+j] + 0.5)
					}
					arrive, _ := want.ReserveFwdSubtree(mod+j, at, w)
					_, end := wantMods.Reserve(mod+j, arrive, busy)
					wantLast = max(wantLast, end)
				}
				if last != wantLast {
					t.Fatalf("%s %s run %d: last module finishes at %d, per-slice walk %d", cfg.Name, c.name, i, last, wantLast)
				}
			}
			if !reflect.DeepEqual(got.Forward, want.Forward) {
				t.Fatalf("%s %s: forward port calendars differ", cfg.Name, c.name)
			}
			if !reflect.DeepEqual(gotMods, wantMods) {
				t.Fatalf("%s %s: module calendars differ", cfg.Name, c.name)
			}
		}
	}
}
