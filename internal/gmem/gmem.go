// Package gmem models the family's shared global memory: GMModules
// independent modules (32 on the paper's Cedar), double-word (8-byte)
// interleaved and aligned, each taking 4 processor clock cycles to
// process a request (Sections 2 and 7 of the paper). Requests reach
// the modules through the forward shuffle-exchange network and replies
// return through the separate return network (package network); every
// fan-out size below — module count, group structure, stage count —
// derives from the arch.Config rather than Cedar constants.
//
// Addresses are in units of 8-byte words. A vector access of W words
// with stride 1 spreads across min(W, modules) modules; module
// occupancy conflicts (two requests in successive cycles to the same
// module delay the second — the paper's 1-processor example) and
// cross-CE contention both emerge from per-module calendar
// reservations.
package gmem

import (
	"repro/internal/arch"
	"repro/internal/network"
	"repro/internal/sim"
)

// Memory is the global memory with its interconnection networks.
type Memory struct {
	cfg  arch.Config
	cost arch.CostModel
	net  *network.Pair
	// modules holds every module's conveyor state struct-of-arrays
	// (entry mod is module mod) — the dense layout the per-access loop
	// walks instead of one heap object per module.
	modules *sim.CalendarStore
	// runAt is reserveRun's per-slice time buffer: each slice's
	// departure from stage 0, then its arrival at each forward stage
	// booked stage-major. A run has at most GMModules slices.
	runAt []sim.Time

	// Scratch buffers for the degraded walk (walkSorted), allocated
	// with the fault state and reused across Access calls. A Memory
	// belongs to exactly one kernel and the simulation of one machine
	// is single-threaded, so plain reuse is safe. scrMod/scrGroup
	// describe each touched slice of the current vector; order lists
	// slice indices bucketed by group (ascending index within each
	// group); grpWords/grpCount/grpOff are per-group accumulators for
	// the counting sort.
	scrMod   []int
	scrGroup []int
	order    []int
	grpWords []int
	grpCount []int
	grpOff   []int

	// Degraded-mode state: per-module service-time inflation factors
	// (0 or 1 = healthy) and offline flags. Requests to an offline
	// module are remapped to the next online module (the spare-module
	// fallback), paying a fixed remap penalty per slice.
	inflate  []float64
	offline  []bool
	nOffline int

	accesses   uint64
	words      uint64
	stallTotal sim.Duration // total (completion - request) beyond zero
	idealTotal sim.Duration // what the same accesses would cost uncontended
	remapped   uint64       // vector slices redirected off an offline module
}

// remapPenaltyCycles is the extra module occupancy a redirected slice
// pays: the fallback module must consult the remap table before
// serving foreign addresses.
const remapPenaltyCycles = 16

// New creates the global memory for a configuration.
func New(cfg arch.Config, cost arch.CostModel) *Memory {
	return &Memory{
		cfg:     cfg,
		cost:    cost,
		net:     network.NewPair(cfg, cost),
		modules: sim.NewCalendarStore(cfg.GMModules),
		runAt:   make([]sim.Time, cfg.GMModules),
	}
}

// Net exposes the network pair (for hot-spot statistics).
func (m *Memory) Net() *network.Pair { return m.net }

func (m *Memory) ensureFaultState() {
	if m.inflate == nil {
		n, groups := m.cfg.GMModules, m.cfg.Groups()
		m.inflate = make([]float64, n)
		m.offline = make([]bool, n)
		// A vector touches at most GMModules slices and Groups()
		// groups, so the degraded walk's buffers never grow.
		m.scrMod = make([]int, n)
		m.scrGroup = make([]int, n)
		m.order = make([]int, n)
		m.grpWords = make([]int, groups)
		m.grpCount = make([]int, groups)
		m.grpOff = make([]int, groups)
	}
}

// InflateModule multiplies module mod's service time (latency and
// per-word transfer) by factor for all subsequent accesses. Factors
// <= 1 restore nominal speed.
func (m *Memory) InflateModule(mod int, factor float64) {
	m.ensureFaultState()
	m.inflate[mod] = factor
}

// OfflineModule takes module mod out of service: subsequent accesses
// that map to it are redirected to the next online module (wrapping),
// paying a remap penalty per redirected slice. The last online module
// cannot be taken offline; OfflineModule reports whether the module is
// now offline.
func (m *Memory) OfflineModule(mod int) bool {
	m.ensureFaultState()
	if m.offline[mod] {
		return true
	}
	if m.nOffline >= m.cfg.GMModules-1 {
		return false
	}
	m.offline[mod] = true
	m.nOffline++
	return true
}

// OfflineModules returns how many modules are currently out of service.
func (m *Memory) OfflineModules() int { return m.nOffline }

// effModule returns the module that actually serves addresses mapping
// to mod: mod itself when online, otherwise the next online module.
func (m *Memory) effModule(mod int) int {
	if m.nOffline == 0 || !m.offline[mod] {
		return mod
	}
	for i := 1; i < m.cfg.GMModules; i++ {
		e := (mod + i) % m.cfg.GMModules
		if !m.offline[e] {
			return e
		}
	}
	return mod
}

// moduleBusy returns module mod's occupancy for a w-word slice,
// including any latency inflation and the remap penalty when the slice
// was redirected from another (offline) module.
func (m *Memory) moduleBusy(mod int, w int, remapped bool) sim.Duration {
	busy := m.cost.ModuleLatency + int64(w)*m.cost.ModuleCyclesPerWord
	if m.inflate != nil && m.inflate[mod] > 1 {
		busy = int64(float64(busy)*m.inflate[mod] + 0.5)
	}
	if remapped {
		busy += remapPenaltyCycles
	}
	return sim.Duration(busy)
}

// Module returns the module index an address maps to (double-word
// interleaved).
func (m *Memory) Module(addr int64) int {
	mod := int(addr % int64(m.cfg.GMModules))
	if mod < 0 {
		mod += m.cfg.GMModules
	}
	return mod
}

// Access performs a read or write of words 8-byte words starting at
// addr (stride 1) on behalf of the CE, with the request issued at
// time at. It returns the completion time (data available at the CE)
// and the portion of the elapsed time attributable to queueing
// (network port and memory module contention).
//
// The vector is spread round-robin across the modules starting at the
// address's module, and the touched modules are grouped by the
// top-level network group (the subtree behind one stage-0 output port)
// that owns them: each group's slice of the vector is an independent
// burst through its own ports. Reservations are made groups ascending,
// slices ascending within each group. A healthy memory walks each
// group's slices in closed form (walkRanges); a memory with modules
// offline regroups the slices by their fallback modules first
// (walkSorted).
//
// The CE process is expected to Hold until the returned completion
// time and charge the stall to its account; Memory itself never
// blocks.
func (m *Memory) Access(at sim.Time, ce arch.CEID, addr int64, words int) (done sim.Time, queued sim.Duration) {
	if words < 1 {
		words = 1
	}
	m.accesses++
	m.words += uint64(words)

	first := m.Module(addr)
	touched := min(words, m.cfg.GMModules)
	sl := spread{first: first, n: touched, per: words / touched, extra: words % touched}
	inject := at + sim.Duration(m.cost.GIFLatency)
	var lastReady sim.Time
	if m.nOffline == 0 {
		lastReady = m.walkRanges(ce, sl, inject)
	} else {
		lastReady = m.walkSorted(ce, sl, inject)
	}

	// Final return stage: every reply word funnels through the CE's own
	// data link.
	back, _ := m.net.Return.Port(m.cfg.NetStages-1, m.net.RetCEPort(ce), lastReady, words)
	done = back + sim.Duration(m.cost.GIFLatency)

	// Per-component queue delays overlap in time across the fanned-out
	// slices, so their sum would overstate the damage; the access's
	// contention is its critical-path excess over the uncontended
	// latency.
	queued = done - at - m.IdealLatency(words)
	if queued < 0 {
		queued = 0
	}
	m.stallTotal += done - at
	m.idealTotal += done - at - queued
	return done, queued
}

// spread describes how one access spreads over the modules: slice i
// (0 <= i < n) belongs to home module first+i, wrapping past the last
// module, and carries per+1 words when i < extra, per words otherwise.
type spread struct {
	first, n, per, extra int
}

// words returns the word count of slice i.
func (s spread) words(i int) int {
	if i < s.extra {
		return s.per + 1
	}
	return s.per
}

// runWords returns the total words of the n slices starting at slice i.
func (s spread) runWords(i, n int) int {
	return n*s.per + min(max(s.extra-i, 0), n)
}

// walkRanges books the ports and modules of a healthy memory, where
// every slice is served by its home module, and returns when the last
// group's reply has left the return stages below the CE's link. The
// slices of group g — modules [lo, hi) — are then at most two
// contiguous module ranges: the unwrapped run [max(lo, first),
// min(hi, first+n)) and the wrapped run [lo, min(hi, first+n-M)). The
// unwrapped run holds the lower slice indices, so walking it before
// the wrapped run keeps slices ascending within the group.
func (m *Memory) walkRanges(ce arch.CEID, sl spread, inject sim.Time) sim.Time {
	nMod := m.cfg.GMModules
	span := m.cfg.GroupSpan()
	end := sl.first + sl.n // one past the last unwrapped home; may pass nMod
	var lastReady sim.Time
	for g, lo := 0, 0; lo < nMod; g, lo = g+1, lo+span {
		hi := min(lo+span, nMod)
		a1, a2 := max(lo, sl.first), lo
		n1 := max(min(hi, end)-a1, 0)
		n2 := max(min(hi, end-nMod)-a2, 0)
		if n1+n2 == 0 {
			continue
		}
		i1, i2 := a1-sl.first, a2+nMod-sl.first // slice index of each run's first module
		groupWords := sl.runWords(i1, n1) + sl.runWords(i2, n2)
		// Forward stage 0: the cluster's port toward group g's subtree.
		a0, _ := m.net.Forward.Port(0, m.net.FwdStage0Port(ce, g), inject, groupWords)
		ready := max(m.reserveRun(sl, a1, i1, n1, a0), m.reserveRun(sl, a2, i2, n2, a0))
		// Return stages 0..k-2: the group's switch back toward the
		// cluster, then the cluster's subtree, as one batched walk.
		rIn, _ := m.net.ReserveRetGroup(g, ce, ready, groupWords)
		lastReady = max(lastReady, rIn)
	}
	return lastReady
}

// reserveRun books forward stages 1..k-1 and the modules for n slices
// from slice i, served by the consecutive home modules from mod, all
// leaving stage 0 at a0. It returns when the last module finishes.
// network.Pair.ReserveFwdRun books the run: on a healthy memory the
// inner stages stage-major, then the last stage and the modules in one
// fused pass. Each port and module still receives this access's
// bookings in slice order, so the result equals a per-slice walk
// through the stages.
func (m *Memory) reserveRun(sl spread, mod, i, n int, a0 sim.Time) sim.Time {
	if n == 0 {
		return 0
	}
	times := m.runAt[:n]
	for j := range times {
		times[j] = a0
	}
	nLong := min(max(sl.extra-i, 0), n)
	short := sim.Duration(m.cost.ModuleLatency + int64(sl.per)*m.cost.ModuleCyclesPerWord)
	long := short + sim.Duration(m.cost.ModuleCyclesPerWord)
	return m.net.ReserveFwdRun(mod, times, sl.per, nLong, m.modules, short, long, m.inflate)
}

// walkSorted is walkRanges for a memory with modules offline, where a
// slice whose home module is offline travels to, and groups with, its
// fallback module. One pass classifies each slice by its serving
// module and group, a counting sort buckets slice indices by group,
// and the walk then visits each group's members in the same order as
// walkRanges: groups ascending, slices ascending within each group.
func (m *Memory) walkSorted(ce arch.CEID, sl spread, inject sim.Time) sim.Time {
	nGroups := m.cfg.Groups()
	groupSpan := m.cfg.GroupSpan()
	for g := 0; g < nGroups; g++ {
		m.grpWords[g] = 0
		m.grpCount[g] = 0
	}
	for i := 0; i < sl.n; i++ {
		mod := m.effModule(m.home(sl, i))
		g := mod / groupSpan
		m.scrMod[i] = mod
		m.scrGroup[i] = g
		m.grpWords[g] += sl.words(i)
		m.grpCount[g]++
	}
	pos := 0
	for g := 0; g < nGroups; g++ {
		m.grpOff[g] = pos
		pos += m.grpCount[g]
	}
	for i := 0; i < sl.n; i++ {
		g := m.scrGroup[i]
		m.order[m.grpOff[g]] = i
		m.grpOff[g]++
	}

	var lastReady sim.Time
	idx := 0
	for g := 0; g < nGroups; g++ {
		cnt := m.grpCount[g]
		if cnt == 0 {
			continue
		}
		groupWords := m.grpWords[g]
		a0, _ := m.net.Forward.Port(0, m.net.FwdStage0Port(ce, g), inject, groupWords)
		var groupReady sim.Time
		for j := 0; j < cnt; j++ {
			i := m.order[idx]
			idx++
			mod, w := m.scrMod[i], sl.words(i)
			remapped := mod != m.home(sl, i)
			if remapped {
				m.remapped++
			}
			aIn, _ := m.net.ReserveFwdSubtree(mod, a0, w)
			_, end := m.modules.Reserve(mod, aIn, m.moduleBusy(mod, w, remapped))
			groupReady = max(groupReady, end)
		}
		rIn, _ := m.net.ReserveRetGroup(g, ce, groupReady, groupWords)
		lastReady = max(lastReady, rIn)
	}
	return lastReady
}

// home returns the home module of slice i.
func (m *Memory) home(sl spread, i int) int {
	h := sl.first + i
	if h >= m.cfg.GMModules {
		h -= m.cfg.GMModules
	}
	return h
}

// ModuleBacklog returns the deepest module queue at time now: the
// largest span by which any module's next-free time exceeds now. It is
// the memory-side hot-spot pressure signal the time-series collector
// samples.
func (m *Memory) ModuleBacklog(now sim.Time) sim.Duration {
	return m.modules.MaxBacklog(now)
}

// IdealLatency returns the zero-contention completion time for an
// access of the given size — the minimum memory access latency of the
// configuration, which the paper notes is identical across all Cedar
// configurations.
func (m *Memory) IdealLatency(words int) sim.Duration {
	if words < 1 {
		words = 1
	}
	touched := words
	if touched > m.cfg.GMModules {
		touched = m.cfg.GMModules
	}
	perModule := (words + touched - 1) / touched
	groupSpan := m.cfg.GroupSpan()
	groups := (touched + groupSpan - 1) / groupSpan
	perGroup := (words + groups - 1) / groups
	inner := int64(m.cfg.NetStages - 1) // stages inside the subtrees
	// Mirror Access with zero queueing: stage-0 burst of the group
	// slice, the module slice through each subtree stage, module
	// occupancy, the group burst back through each return stage, then
	// the full vector through the CE's link; one stage latency per
	// stage per direction. For the two-stage Cedar network this is the
	// seed's 2*perGroup + perModule + words port-cycle formula.
	lat := 2*sim.Duration(m.cost.GIFLatency) +
		sim.Duration(2*int64(m.cfg.NetStages)*m.cost.StageLatency) +
		sim.Duration(int64(perGroup)*m.cost.PortCyclesPerWord) + // fwd stage-0
		sim.Duration(inner*int64(perModule)*m.cost.PortCyclesPerWord) + // fwd stages 1..k-1
		sim.Duration(m.cost.ModuleLatency+int64(perModule)*m.cost.ModuleCyclesPerWord) +
		sim.Duration(inner*int64(perGroup)*m.cost.PortCyclesPerWord) + // ret stages 0..k-2
		sim.Duration(int64(words)*m.cost.PortCyclesPerWord) // CE return link
	return lat
}

// Stats summarizes traffic and contention observed by the memory.
type Stats struct {
	Accesses     uint64
	Words        uint64
	StallTotal   sim.Duration // total request-to-completion time
	IdealTotal   sim.Duration // same, minus queueing
	ModuleDelay  sim.Duration // queueing at modules only
	NetworkDelay sim.Duration // queueing at network ports only
	Remapped     uint64       // slices redirected off offline modules
}

// Stats returns the memory's aggregate statistics.
func (m *Memory) Stats() Stats {
	st := Stats{
		Accesses:   m.accesses,
		Words:      m.words,
		StallTotal: m.stallTotal,
		IdealTotal: m.idealTotal,
		Remapped:   m.remapped,
	}
	st.ModuleDelay = m.modules.DelaySum()
	st.NetworkDelay = m.net.Stats().DelayTotal
	return st
}

// Accesses returns how many accesses the memory has served.
func (m *Memory) Accesses() uint64 { return m.accesses }

// UtilizationSummary returns the mean and the largest of the modules'
// busy fractions at time now, the same values ModuleUtilization's
// entries give, without building the per-module slice.
func (m *Memory) UtilizationSummary(now sim.Time) (mean, max float64) {
	n := m.modules.Len()
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		u := m.modules.Utilization(i, now)
		sum += u
		if u > max {
			max = u
		}
	}
	return sum / float64(n), max
}

// ModuleUtilization returns per-module busy fractions at time now —
// the trace tool's per-module table.
func (m *Memory) ModuleUtilization(now sim.Time) []float64 {
	out := make([]float64, m.modules.Len())
	for i := range out {
		out[i] = m.modules.Utilization(i, now)
	}
	return out
}
