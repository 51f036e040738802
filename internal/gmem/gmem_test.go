package gmem

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/sim"
)

func mem() *Memory { return New(arch.Cedar32, arch.DefaultCosts()) }

func TestModuleInterleaving(t *testing.T) {
	m := mem()
	for addr := int64(0); addr < 64; addr++ {
		if got, want := m.Module(addr), int(addr%32); got != want {
			t.Fatalf("Module(%d) = %d, want %d", addr, got, want)
		}
	}
}

func TestSingleWordLatencyMatchesIdeal(t *testing.T) {
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	done, queued := m.Access(0, ce, 0, 1)
	if queued != 0 {
		t.Fatalf("lone access queued %d", queued)
	}
	if got := sim.Duration(done); got != m.IdealLatency(1) {
		t.Fatalf("latency %d != ideal %d", got, m.IdealLatency(1))
	}
}

func TestVectorSpreadsAcrossModules(t *testing.T) {
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	// A 32-word vector touches all modules; each serves one word, so
	// the module phase should take one module's latency, not 32x.
	done32, _ := m.Access(0, ce, 0, 32)
	m2 := mem()
	done1, _ := m2.Access(0, ce, 0, 1)
	// The vector pays port occupancy for 32 words but only one word of
	// occupancy per module: far less than 32 sequential accesses.
	if done32 >= 32*done1 {
		t.Fatalf("vector access not pipelined: 32 words took %d, single took %d", done32, done1)
	}
}

func TestSuccessiveRequestsSameModuleConflict(t *testing.T) {
	// The paper's 1-processor example: two requests in successive
	// cycles to the same module delay the second.
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	done1, q1 := m.Access(0, ce, 0, 1)
	_, q2 := m.Access(1, ce, 0, 1) // same module, next cycle
	if q1 != 0 {
		t.Fatalf("first access queued %d", q1)
	}
	if q2 == 0 {
		t.Fatal("second access to same module saw no conflict")
	}
	_ = done1
}

func TestDifferentModulesNoConflict(t *testing.T) {
	m := mem()
	ce := arch.CEID{Cluster: 0, Local: 0}
	ce2 := arch.CEID{Cluster: 1, Local: 0}
	_, q1 := m.Access(0, ce, 0, 1)
	_, q2 := m.Access(0, ce2, 9, 1) // different module, different route
	if q1 != 0 || q2 != 0 {
		t.Fatalf("independent accesses queued %d, %d", q1, q2)
	}
}

func TestContentionGrowsWithCompetitors(t *testing.T) {
	cfg := arch.Cedar32
	var prev sim.Duration = -1
	for _, n := range []int{1, 8, 32} {
		m := New(cfg, arch.DefaultCosts())
		var total sim.Duration
		for g := 0; g < n; g++ {
			_, q := m.Access(0, cfg.CEByGlobal(g%32), int64(g*64), 64)
			total += q
		}
		if total <= prev {
			t.Fatalf("%d competitors: queueing %d not greater than previous %d", n, total, prev)
		}
		prev = total
	}
}

func TestStatsConsistency(t *testing.T) {
	m := mem()
	cfg := arch.Cedar32
	for g := 0; g < 32; g++ {
		m.Access(0, cfg.CEByGlobal(g), 0, 16) // all hit modules 0..15: contention
	}
	st := m.Stats()
	if st.Accesses != 32 || st.Words != 32*16 {
		t.Fatalf("accesses=%d words=%d", st.Accesses, st.Words)
	}
	if st.StallTotal < st.IdealTotal {
		t.Fatal("stall < ideal")
	}
	// Component delays overlap, so their sum bounds the critical-path
	// excess from above.
	if got := st.StallTotal - st.IdealTotal; got > st.ModuleDelay+st.NetworkDelay {
		t.Fatalf("critical-path excess %d exceeds component sum %d",
			got, st.ModuleDelay+st.NetworkDelay)
	}
}

func TestIdealLatencyMonotoneInWords(t *testing.T) {
	m := mem()
	prev := sim.Duration(0)
	for _, w := range []int{1, 2, 8, 32, 64, 256} {
		l := m.IdealLatency(w)
		if l <= prev {
			t.Fatalf("IdealLatency(%d) = %d not > previous %d", w, l, prev)
		}
		prev = l
	}
}

func TestQuickAccessNeverFasterThanIdeal(t *testing.T) {
	// Invariants under arbitrary traffic: queueing is never negative,
	// and an access can never complete faster than streaming its words
	// through the CE's return link plus the fixed path latencies.
	cost := arch.DefaultCosts()
	f := func(ops []struct {
		CE    uint8
		Addr  uint16
		Words uint8
	}) bool {
		m := mem()
		cfg := arch.Cedar32
		at := sim.Time(0)
		for _, op := range ops {
			w := int(op.Words%64) + 1
			ce := cfg.CEByGlobal(int(op.CE) % 32)
			done, queued := m.Access(at, ce, int64(op.Addr), w)
			if queued < 0 {
				return false
			}
			floor := sim.Duration(int64(w)*cost.PortCyclesPerWord) + m.IdealLatency(1)/2
			if done-at < floor {
				return false
			}
			at += 3
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refAccess is the former Access, kept as the reference for the
// closed-form walk: it classifies every slice by serving module and
// group, counting-sorts the slice indices by group, and reserves
// groups ascending, slices ascending within each group, for healthy
// and degraded memories alike.
func refAccess(m *Memory, at sim.Time, ce arch.CEID, addr int64, words int) (done sim.Time, queued sim.Duration) {
	if words < 1 {
		words = 1
	}
	m.accesses++
	m.words += uint64(words)
	nMod := m.cfg.GMModules
	firstModule := m.Module(addr)
	touched := min(words, nMod)
	perModule := words / touched
	extra := words % touched
	groupSpan := m.cfg.GroupSpan()
	nGroups := m.cfg.Groups()
	inject := at + sim.Duration(m.cost.GIFLatency)
	var lastReady sim.Time

	scrMod := make([]int, touched)
	scrW := make([]int, touched)
	scrGroup := make([]int, touched)
	order := make([]int, touched)
	grpWords := make([]int, nGroups)
	grpCount := make([]int, nGroups)
	grpOff := make([]int, nGroups)
	for i := 0; i < touched; i++ {
		home := (firstModule + i) % nMod
		mod := home
		if m.nOffline > 0 {
			mod = m.effModule(home)
		}
		w := perModule
		if i < extra {
			w++
		}
		g := mod / groupSpan
		scrMod[i], scrW[i], scrGroup[i] = mod, w, g
		grpWords[g] += w
		grpCount[g]++
	}
	pos := 0
	for g := 0; g < nGroups; g++ {
		grpOff[g] = pos
		pos += grpCount[g]
	}
	for i := 0; i < touched; i++ {
		g := scrGroup[i]
		order[grpOff[g]] = i
		grpOff[g]++
	}
	idx := 0
	for g := 0; g < nGroups; g++ {
		cnt := grpCount[g]
		if cnt == 0 {
			continue
		}
		a0, _ := m.net.Forward.Port(0, m.net.FwdStage0Port(ce, g), inject, grpWords[g])
		var groupReady sim.Time
		for j := 0; j < cnt; j++ {
			i := order[idx]
			idx++
			mod, w := scrMod[i], scrW[i]
			home := (firstModule + i) % nMod
			if mod != home {
				m.remapped++
			}
			aIn, _ := m.net.ReserveFwdSubtree(mod, a0, w)
			_, end := m.modules.Reserve(mod, aIn, m.moduleBusy(mod, w, mod != home))
			if end > groupReady {
				groupReady = end
			}
		}
		rIn, _ := m.net.ReserveRetGroup(g, ce, groupReady, grpWords[g])
		if rIn > lastReady {
			lastReady = rIn
		}
	}
	back, _ := m.net.Return.Port(m.cfg.NetStages-1, m.net.RetCEPort(ce), lastReady, words)
	done = back + sim.Duration(m.cost.GIFLatency)
	queued = done - at - m.IdealLatency(words)
	if queued < 0 {
		queued = 0
	}
	m.stallTotal += done - at
	m.idealTotal += done - at - queued
	return done, queued
}

// sameState reports the first difference between two memories' traffic
// state: statistics, every module conveyor, and every network port
// conveyor in both directions.
func sameState(a, b *Memory) string {
	if a.Stats() != b.Stats() {
		return fmt.Sprintf("stats %+v vs %+v", a.Stats(), b.Stats())
	}
	if !reflect.DeepEqual(a.modules, b.modules) {
		return "module conveyors differ"
	}
	if !reflect.DeepEqual(a.net.Forward, b.net.Forward) {
		return "forward port conveyors differ"
	}
	if !reflect.DeepEqual(a.net.Return, b.net.Return) {
		return "return port conveyors differ"
	}
	return ""
}

// firstModules returns the first modules the differential test starts
// vectors at: every module on machines of up to 256 modules, and on
// larger ones, where a full sweep costs O(M^2) reservations per word
// count, the module at each end, next to each end and at the middle of
// every group — every case the closed form tells apart (where the run
// starts in its group, which group, whether it wraps).
func firstModules(nMod, span int) []int {
	var out []int
	for first := 0; first < nMod; first++ {
		in := first % span
		if nMod <= 256 || in <= 1 || in >= span-2 || in == span/2 {
			out = append(out, first)
		}
	}
	return out
}

// degradations are the memory states the differential test runs:
// healthy; modules offline (walkSorted); inflated modules with all
// modules online; and degraded forward ports with all modules online —
// on stage 1 and, on networks of three or more stages, on every stage
// after it, so the ports that inner stages share among several modules
// are stretched too. Factors like 1.3 and 2.5 exercise the rounding of
// stretched busy times.
var degradations = []struct {
	name string
	arm  func(m *Memory)
}{
	{"healthy", func(*Memory) {}},
	{"offline", func(m *Memory) {
		nMod := m.cfg.GMModules
		m.OfflineModule(0)
		m.OfflineModule(nMod / 2)
		m.InflateModule(nMod-1, 2.5)
	}},
	{"inflated", func(m *Memory) {
		nMod := m.cfg.GMModules
		m.InflateModule(0, 2)
		m.InflateModule(nMod/2, 1.3)
		m.InflateModule(nMod-1, 2.5)
	}},
	{"ports", func(m *Memory) {
		fwd := m.net.Forward
		for s := 1; s < m.cfg.NetStages; s++ {
			last := m.cfg.GMModules - 1 // the stage's last port in use
			for i := s; i < m.cfg.NetStages-1; i++ {
				last /= m.cfg.SwitchDegree
			}
			fwd.DegradePort(s, 0, 4)
			fwd.DegradePort(s, last/2, 1.3)
			fwd.DegradePort(s, last, 2.5)
		}
	}},
}

// TestAccessMatchesCountingSortWalk drives Access and refAccess over
// the same access streams and requires identical results for every
// access and identical statistics and module and port state after
// every access. It covers every named configuration, the first modules
// of firstModules, word counts around the group span and the module
// count, and every memory state of degradations.
func TestAccessMatchesCountingSortWalk(t *testing.T) {
	for _, cfg := range arch.Families() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			nMod, span := cfg.GMModules, cfg.GroupSpan()
			sizes := []int{1, span - 1, span, span + 1, nMod - 1, nMod, nMod + 1, 3*nMod + 5}
			for _, deg := range degradations {
				got, want := New(cfg, arch.DefaultCosts()), New(cfg, arch.DefaultCosts())
				deg.arm(got)
				deg.arm(want)
				at := sim.Time(0)
				for _, first := range firstModules(nMod, span) {
					for k, words := range sizes {
						if words < 1 {
							continue
						}
						ce := cfg.CEByGlobal((first + k) % cfg.CEs())
						addr := int64(first + nMod*k)
						d1, q1 := got.Access(at, ce, addr, words)
						d2, q2 := refAccess(want, at, ce, addr, words)
						if d1 != d2 || q1 != q2 {
							t.Fatalf("%s first=%d words=%d: Access (%d, %d), reference (%d, %d)",
								deg.name, first, words, d1, q1, d2, q2)
						}
						if diff := sameState(got, want); diff != "" {
							t.Fatalf("%s first=%d words=%d: %s", deg.name, first, words, diff)
						}
						at += sim.Time(1 + (first+k)%5)
					}
				}
			}
		})
	}
}

// TestUtilizationSummary: the summary equals the mean and the largest
// entry of ModuleUtilization, computed the same way, and allocates
// nothing.
func TestUtilizationSummary(t *testing.T) {
	cfg := arch.Scaled64
	m := New(cfg, arch.DefaultCosts())
	if mean, max := m.UtilizationSummary(0); mean != 0 || max != 0 {
		t.Fatalf("summary at time 0 = (%g, %g), want zeros", mean, max)
	}
	for g := 0; g < 40; g++ {
		m.Access(sim.Time(g), cfg.CEByGlobal(g%cfg.CEs()), int64(g*13), 1+g%9)
	}
	now := sim.Time(5000)
	var sum, wantMax float64
	us := m.ModuleUtilization(now)
	for _, u := range us {
		sum += u
		wantMax = max(wantMax, u)
	}
	mean, gotMax := m.UtilizationSummary(now)
	if mean != sum/float64(len(us)) || gotMax != wantMax || gotMax == 0 {
		t.Fatalf("summary (%g, %g), want (%g, %g)", mean, gotMax, sum/float64(len(us)), wantMax)
	}
	if m.Accesses() != 40 {
		t.Fatalf("Accesses = %d, want 40", m.Accesses())
	}
	if allocs := testing.AllocsPerRun(100, func() { m.UtilizationSummary(now) }); allocs != 0 {
		t.Fatalf("UtilizationSummary allocates %v, want 0", allocs)
	}
}
