// Package network models the interconnection network of the Cedar
// machine family: a k-stage shuffle-exchange network built from
// degree-d crossbar switches, with one network for the forward path
// (CEs to global memory) and a separate one for the return path
// (global memory to CEs). On the paper's Cedar, k = 2 and d = 8,
// exactly as Section 2 describes; scaled family members widen the
// switches or add stages.
//
// Routes are derived from the configuration instead of hard-coded:
// a forward message selects its stage-0 output by the destination
// module's most significant base-d digit and then funnels through the
// destination's subtree, one digit per stage (delta-network
// self-routing), so paths toward one module converge stage by stage —
// the tree-saturation structure hot-spot studies describe. The return
// network mirrors this toward the CE's cluster and private data link.
// arch.Config.Validate rejects configurations these routes cannot
// realize (too many modules for the stage count, CE-side wiring wider
// than the stages).
//
// Each crossbar output port is a pipelined bandwidth resource. All
// ports of one direction live in a single sim.CalendarStore indexed
// stage*width+port — a struct-of-arrays layout, so the per-access port
// walks of a big configuration touch dense slices instead of
// pointer-chasing one heap object per port. A message of W words
// occupies a port for W*PortCyclesPerWord cycles; queueing at ports is
// the network half of the paper's "global memory and network
// contention" overhead, and hot spots (many CEs targeting one module,
// e.g. a busy-wait barrier through global memory) emerge as deep port
// and module queues.
package network

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim"
)

// Net is one direction of the Cedar interconnection network.
type Net struct {
	cfg  arch.Config
	cost arch.CostModel
	dir  string // "fwd" or "ret", for diagnostic port names
	// store holds every output port's conveyor state, flattened:
	// port p of stage s is entry s*width+p. Stage 0 is the input
	// stage. For the forward net, the last stage's output ports feed
	// the memory modules; for the return net they feed the CEs.
	store *sim.CalendarStore
	width int
	// stageDivs[s] is SwitchDegree^(NetStages-1-s): the divisor that
	// extracts the destination prefix routed through at stage s,
	// precomputed so route walks are pure integer arithmetic.
	stageDivs []int
	// degrade[s*width+p] > 1 stretches port p of stage s: each word
	// occupies the port that many times longer (a flaky link running
	// at reduced bandwidth). nil until a fault arms it.
	degrade []float64
}

// DegradePort stretches the bandwidth of one output port: words
// through it occupy factor times as many cycles. Factors <= 1 restore
// nominal speed.
func (n *Net) DegradePort(stage, port int, factor float64) {
	if n.degrade == nil {
		n.degrade = make([]float64, n.cfg.NetStages*n.width)
	}
	n.degrade[stage*n.width+port] = factor
}

// portBusy returns the occupancy of a words-long burst at the given
// port, including any degradation factor.
func (n *Net) portBusy(stage, port, words int) sim.Duration {
	busy := int64(words) * n.cost.PortCyclesPerWord
	if n.degrade != nil {
		if f := n.degrade[stage*n.width+port]; f > 1 {
			busy = int64(float64(busy)*f + 0.5)
		}
	}
	return sim.Duration(busy)
}

// portName synthesizes the diagnostic name of a port from its flat
// store index.
func (n *Net) portName(idx int) string {
	return fmt.Sprintf("%s.s%d.p%d", n.dir, idx/n.width, idx%n.width)
}

// newNet builds one direction with the given name prefix.
func newNet(cfg arch.Config, cost arch.CostModel, dir string) *Net {
	// Every stage is GMModules ports wide; on the CE side the wiring
	// supports the full machine regardless of how many CEs the
	// configuration populates — "the different Cedar configurations
	// ... use the same interconnection network and memory".
	width := cfg.NetWidth()
	n := &Net{
		cfg:       cfg,
		cost:      cost,
		dir:       dir,
		store:     sim.NewCalendarStore(cfg.NetStages * width),
		width:     width,
		stageDivs: make([]int, cfg.NetStages),
	}
	for s := 0; s < cfg.NetStages; s++ {
		n.stageDivs[s] = stageDiv(cfg, s)
	}
	return n
}

// Forward and Return are the two directions of the network pair.
type Pair struct {
	Forward *Net
	Return  *Net
}

// NewPair builds the forward and return networks.
func NewPair(cfg arch.Config, cost arch.CostModel) *Pair {
	return &Pair{
		Forward: newNet(cfg, cost, "fwd"),
		Return:  newNet(cfg, cost, "ret"),
	}
}

// stageDiv returns SwitchDegree^(NetStages-1-stage): the divisor that
// extracts the destination prefix routed through at the given stage.
func stageDiv(cfg arch.Config, stage int) int {
	div := 1
	for i := 0; i < cfg.NetStages-1-stage; i++ {
		div *= cfg.SwitchDegree
	}
	return div
}

// fwdRoute returns the output-port indices a message from the given CE
// to the given module traverses, one per stage (len == NetStages).
//
// Stage 0: the CE's cluster feeds input switch `cluster`; the output
// port selects the module's top-level subtree (its most significant
// base-d digit, module / d^(k-1)). Stage i >= 1: the message is inside
// the module's subtree; the port index is the module's prefix through
// that stage, module / d^(k-1-i) — paths toward one module converge
// stage by stage. The final stage's port is the module itself. For the
// paper's two-stage network this is exactly [cluster*d + module/d,
// module].
func (n *Net) fwdRoute(ce arch.CEID, module int) []int {
	d := n.cfg.SwitchDegree
	route := make([]int, n.cfg.NetStages)
	route[0] = ce.Cluster*d + module/n.stageDivs[0]
	for s := 1; s < n.cfg.NetStages; s++ {
		route[s] = module / n.stageDivs[s]
	}
	return route
}

// revRoute is the mirror route from a module back to a CE: stage 0
// leaves the module's top-level switch toward the destination cluster
// (one output digit per cluster), intermediate stages funnel through
// the cluster's subtree (prefixes of the CE's endpoint index
// cluster*d + local), and the final stage's port is the CE's private
// data link. For two stages this is exactly [(module/d)*d + cluster,
// cluster*d + local].
func (n *Net) revRoute(module int, ce arch.CEID) []int {
	d := n.cfg.SwitchDegree
	e := ce.Cluster*d + ce.Local // CE endpoint index on the return side
	if n.cfg.NetStages == 1 {
		// A single-crossbar return network: the only stage is the CE's
		// own data link.
		return []int{e}
	}
	route := make([]int, n.cfg.NetStages)
	route[0] = (module/n.stageDivs[0])*d + ce.Cluster
	for s := 1; s < n.cfg.NetStages; s++ {
		route[s] = e / n.stageDivs[s]
	}
	return route
}

// Transit carries a message of the given word count across the
// network in the forward direction, departing no earlier than at.
// It returns the time the message has fully arrived at the module side
// and the queueing delay suffered at ports (the contention component).
func (p *Pair) Transit(at sim.Time, ce arch.CEID, module int, words int) (arrive sim.Time, queued sim.Duration) {
	return p.Forward.transit(at, p.Forward.fwdRoute(ce, module), words)
}

// TransitBack carries a reply of the given word count from the module
// back to the CE.
func (p *Pair) TransitBack(at sim.Time, module int, ce arch.CEID, words int) (arrive sim.Time, queued sim.Duration) {
	return p.Return.transit(at, p.Return.revRoute(module, ce), words)
}

func (n *Net) transit(at sim.Time, route []int, words int) (sim.Time, sim.Duration) {
	if words < 1 {
		words = 1
	}
	if len(route) != n.cfg.NetStages {
		panic(fmt.Sprintf("network: route %v has %d stages, network has %d",
			route, len(route), n.cfg.NetStages))
	}
	var queued sim.Duration
	t := at
	for s, port := range route {
		start, end := n.store.Reserve(s*n.width+port, t, n.portBusy(s, port, words))
		queued += start - t
		// The head of the message moves on after the stage latency;
		// the tail clears the port at end. The next stage can begin
		// accepting at head arrival, but cannot finish before the tail
		// has passed, so we propagate the tail time plus latency.
		t = end + sim.Duration(n.cost.StageLatency)
	}
	return t, queued
}

// Port reserves one specific output port of one stage for a
// words-long burst departing no earlier than at. Vector accesses use
// this to fan a stride-1 stream out across the stage-1 switches (each
// slice of the vector traverses a different port), which is how the
// real shuffle-exchange network carries interleaved vectors.
// It returns the time the burst has cleared the port plus the stage
// transit latency, and the queueing delay.
func (n *Net) Port(stage, port int, at sim.Time, words int) (sim.Time, sim.Duration) {
	if words < 1 {
		words = 1
	}
	start, end := n.store.Reserve(stage*n.width+port, at, n.portBusy(stage, port, words))
	return end + sim.Duration(n.cost.StageLatency), start - at
}

// FwdStage0Port returns the forward stage-0 port index a message from
// the CE's cluster takes toward top-level group g (the subtree of
// modules sharing the most significant destination digit).
func (p *Pair) FwdStage0Port(ce arch.CEID, g int) int {
	return ce.Cluster*p.Forward.cfg.SwitchDegree + g
}

// FwdModulePorts returns the forward port indices a message traverses
// inside the module's subtree — stages 1..k-1, ending at the module's
// own port. For the two-stage Cedar network this is just [module].
// The hot paths use the allocation-free ReserveFwdRun and
// ReserveFwdSubtree instead.
func (p *Pair) FwdModulePorts(module int) []int {
	k := p.Forward.cfg.NetStages
	ports := make([]int, 0, k-1)
	for s := 1; s < k; s++ {
		ports = append(ports, module/p.Forward.stageDivs[s])
	}
	return ports
}

// RetGroupPorts returns the return port indices a reply burst from
// top-level group g traverses before the CE's private link — stages
// 0..k-2, leaving the group's switch toward the CE's cluster and
// funneling through the cluster's subtree. For the two-stage Cedar
// network this is just [g*d + cluster]. The hot path uses the
// allocation-free ReserveRetGroup instead.
func (p *Pair) RetGroupPorts(g int, ce arch.CEID) []int {
	cfg := p.Return.cfg
	d := cfg.SwitchDegree
	k := cfg.NetStages
	ports := make([]int, 0, k-1)
	if k >= 2 {
		ports = append(ports, g*d+ce.Cluster)
	}
	e := ce.Cluster*d + ce.Local
	for s := 1; s < k-1; s++ {
		ports = append(ports, e/p.Return.stageDivs[s])
	}
	return ports
}

// ReserveFwdSubtree carries one module slice through forward stages
// 1..k-1 in a single walk: the batched form of calling Port along
// FwdModulePorts. It returns the time the slice has fully arrived at
// the module's input and the queueing delay accumulated at the
// traversed ports. It serves slices whose modules are not consecutive,
// as when offline modules send slices to fallback modules; a run of
// consecutive modules books through ReserveFwdRun.
func (p *Pair) ReserveFwdSubtree(module int, at sim.Time, words int) (arrive sim.Time, queued sim.Duration) {
	n := p.Forward
	if words < 1 {
		words = 1
	}
	t := at
	for s := 1; s < n.cfg.NetStages; s++ {
		port := module / n.stageDivs[s]
		start, end := n.store.Reserve(s*n.width+port, t, n.portBusy(s, port, words))
		queued += start - t
		t = end + sim.Duration(n.cost.StageLatency)
	}
	return t, queued
}

// ReserveFwdRun carries a run of module slices through forward stages
// 1..k-1 and books each slice at its module: slice j is bound for
// module mod+j, left stage 0 at times[j], carries words+1 words when
// j < nLong and words otherwise, and then occupies entry mod+j of
// modules for modLong or modShort cycles, stretched by inflate as
// sim.CalendarStore.ReserveRun stretches (nil: no module inflated). It
// returns when the last module finishes, and uses times as scratch.
//
// Every port and module gets the same bookings in the same slice order
// as a ReserveFwdSubtree walk and a module Reserve per slice: a slice's
// request time at a stage depends only on its own arrival from the
// stage before, and different stages share no port. Stages 1..k-2 are
// booked stage-major, one ReserveRun per stage. The last stage has one
// port per module (its divisor is 1 for any k), so when no forward port
// is degraded and no module inflated, it and the modules are booked in
// one fused pass (ReserveRunThen) that keeps each slice's arrival at
// its module in a register. Otherwise the last stage is booked like
// the others, then the modules.
func (p *Pair) ReserveFwdRun(mod int, times []sim.Time, words, nLong int, modules *sim.CalendarStore, modShort, modLong sim.Duration, inflate []float64) sim.Time {
	n := p.Forward
	short := sim.Duration(int64(max(words, 1)) * n.cost.PortCyclesPerWord)
	long := sim.Duration(int64(max(words+1, 1)) * n.cost.PortCyclesPerWord)
	lat := sim.Duration(n.cost.StageLatency)
	k := n.cfg.NetStages
	fused := n.degrade == nil && inflate == nil && k >= 2
	staged := k
	if fused {
		staged = k - 1
	}
	for s := 1; s < staged; s++ {
		var stretch []float64
		if n.degrade != nil {
			stretch = n.degrade[s*n.width : (s+1)*n.width]
		}
		n.store.ReserveRun(s*n.width, mod, n.stageDivs[s], times, short, long, nLong, stretch)
		for j := range times {
			times[j] += lat
		}
	}
	if fused {
		return n.store.ReserveRunThen(staged*n.width, mod, times, short, long, lat, modules, modShort, modLong, nLong)
	}
	return modules.ReserveRun(0, mod, 1, times, modShort, modLong, nLong, inflate)
}

// ReserveRetGroup carries a group's reply burst through return stages
// 0..k-2 in a single walk: the batched form of calling Port along
// RetGroupPorts. It returns the time the burst has cleared the last
// group stage and the queueing delay accumulated on the way.
func (p *Pair) ReserveRetGroup(g int, ce arch.CEID, at sim.Time, words int) (arrive sim.Time, queued sim.Duration) {
	n := p.Return
	if words < 1 {
		words = 1
	}
	d := n.cfg.SwitchDegree
	k := n.cfg.NetStages
	t := at
	if k >= 2 {
		port := g*d + ce.Cluster
		start, end := n.store.Reserve(port, t, n.portBusy(0, port, words))
		queued += start - t
		t = end + sim.Duration(n.cost.StageLatency)
	}
	e := ce.Cluster*d + ce.Local
	for s := 1; s < k-1; s++ {
		port := e / n.stageDivs[s]
		start, end := n.store.Reserve(s*n.width+port, t, n.portBusy(s, port, words))
		queued += start - t
		t = end + sim.Duration(n.cost.StageLatency)
	}
	return t, queued
}

// RetCEPort returns the final return-stage port index feeding the CE —
// the CE's private data link, which every reply word funnels through.
func (p *Pair) RetCEPort(ce arch.CEID) int {
	return ce.Cluster*p.Return.cfg.SwitchDegree + ce.Local
}

// PortStats aggregates calendar statistics over all ports of both
// directions — the network's total contribution to contention.
type PortStats struct {
	Reservations uint64
	BusyTotal    sim.Duration
	DelayTotal   sim.Duration
	Delayed      uint64
}

// Stats returns aggregate port statistics for the pair.
func (p *Pair) Stats() PortStats {
	var st PortStats
	for _, n := range []*Net{p.Forward, p.Return} {
		res, busy, delay, delayed := n.store.Totals()
		st.Reservations += res
		st.BusyTotal += busy
		st.DelayTotal += delay
		st.Delayed += delayed
	}
	return st
}

// Backlog returns the deepest port queue at time now across both
// directions: the largest span by which any port's next-free time
// exceeds now. Hot spots (many CEs hammering one module's port, e.g. a
// busy-wait barrier through global memory) show up as spikes in this
// signal; the time-series collector samples it.
func (p *Pair) Backlog(now sim.Time) sim.Duration {
	var max sim.Duration
	for _, n := range []*Net{p.Forward, p.Return} {
		if b := n.store.MaxBacklog(now); b > max {
			max = b
		}
	}
	return max
}

// MaxPortDelay returns the largest cumulative queueing delay on any
// single port — a hot-spot indicator.
func (p *Pair) MaxPortDelay() (name string, delay sim.Duration) {
	for _, n := range []*Net{p.Forward, p.Return} {
		if idx, d := n.store.MaxDelayIndex(); d > delay {
			delay = d
			name = n.portName(idx)
		}
	}
	return name, delay
}
