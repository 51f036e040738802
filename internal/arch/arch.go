// Package arch describes a family of Cedar-like machines: clusters of
// computational elements behind a k-stage shuffle-exchange network and
// an interleaved global memory, plus the unit-cost model used by the
// hardware, OS, and runtime simulations.
//
// The machine description is fully parametric: any cluster count, CEs
// per cluster, global-memory module count, switch degree, and network
// stage count that the multistage router can realize is a valid
// Config. The five configurations the paper measures (1–32 CEs behind
// a two-stage network of 8x8 crossbars) are named members of the
// family, alongside scaled machines the paper could not build
// (Scaled64, Scaled128, Scaled256, Deep64, and the three-stage
// Scaled1024/Scaled4096) for capacity-planning studies with the same
// overhead decomposition.
//
// All times are in cycles of the CE clock. The clock is fixed at
// 20 MHz so that one cycle equals 50 ns — the timestamp resolution of
// the cedarhpm hardware monitor in the paper — which makes simulated
// cycle counts directly comparable to the paper's second-denominated
// measurements.
package arch

import (
	"fmt"
	"strings"
)

// CycleNS is the duration of one CE clock cycle in nanoseconds.
const CycleNS = 50

// CyclesPerSecond is the CE clock rate.
const CyclesPerSecond = 1e9 / CycleNS

// Config describes one member of the Cedar machine family.
type Config struct {
	// Name is a short label such as "32proc".
	Name string
	// Clusters is the number of Alliant FX/8-style clusters (1, 2, or
	// 4 on the real machine; scaled families go beyond).
	Clusters int
	// CEsPerCluster is the number of computational elements per
	// cluster (8 on the real machine; smaller values model the 1- and
	// 4-processor configurations, which use a single cluster).
	CEsPerCluster int
	// GMModules is the number of independent global memory modules
	// (32 on Cedar, double-word interleaved and aligned). It is also
	// the port width of each network stage.
	GMModules int
	// NetStages is the number of network stages (2 on Cedar), each
	// built from SwitchDegree-way crossbar switches.
	NetStages int
	// SwitchDegree is the fan-in/out of each crossbar switch (8 on
	// Cedar).
	SwitchDegree int
	// Unclustered, when true, removes the cluster hierarchy for
	// runtime purposes: every CE is treated as an independent
	// processor that synchronizes through global memory. This models
	// the "32 independent processors" alternative discussed in
	// Section 6 of the paper. The hardware paths are unchanged.
	Unclustered bool
}

// CEs returns the total number of computational elements.
func (c Config) CEs() int { return c.Clusters * c.CEsPerCluster }

// NetWidth returns the port count of each network stage (one port per
// global memory module; the CE-side wiring shares the same width).
func (c Config) NetWidth() int { return c.GMModules }

// GroupSpan returns how many consecutive modules share a top-level
// network group: the subtree of modules reached through one stage-0
// output port, SwitchDegree^(NetStages-1) capped at the module count.
// Vector accesses fan out across groups (one stage-0 burst per group),
// which is how the shuffle-exchange network carries interleaved
// vectors.
func (c Config) GroupSpan() int {
	span := ipow(c.SwitchDegree, c.NetStages-1)
	if span > c.GMModules {
		span = c.GMModules
	}
	if span < 1 {
		span = 1
	}
	return span
}

// Groups returns the number of top-level network groups.
func (c Config) Groups() int {
	span := c.GroupSpan()
	return (c.GMModules + span - 1) / span
}

// ipow returns d^k for small non-negative k, saturating at a large
// value to keep Validate's comparisons safe from overflow.
func ipow(d, k int) int {
	p := 1
	for i := 0; i < k; i++ {
		if p > 1<<30 {
			return 1 << 30
		}
		p *= d
	}
	return p
}

// Validate reports whether the configuration is self-consistent and
// whether the k-stage shuffle-exchange router can realize it. Each
// violated constraint is named in the error.
func (c Config) Validate() error {
	switch {
	case c.Clusters < 1:
		return fmt.Errorf("arch: %s: clusters %d < 1", c.Name, c.Clusters)
	case c.CEsPerCluster < 1:
		return fmt.Errorf("arch: %s: CEs/cluster %d < 1", c.Name, c.CEsPerCluster)
	case c.GMModules < 1 || c.GMModules&(c.GMModules-1) != 0:
		return fmt.Errorf("arch: %s: GM modules %d not a power of two", c.Name, c.GMModules)
	case c.NetStages < 1:
		return fmt.Errorf("arch: %s: net stages %d < 1", c.Name, c.NetStages)
	case c.SwitchDegree < 2 || c.SwitchDegree&(c.SwitchDegree-1) != 0:
		return fmt.Errorf("arch: %s: switch degree %d not a power of two >= 2", c.Name, c.SwitchDegree)
	// The router's realizability constraints. Routes address the
	// destination module digit by digit in base SwitchDegree, so a
	// k-stage network reaches at most SwitchDegree^k modules; the
	// CE-side wiring (stage-0 input switches, one per cluster, and the
	// per-CE return links cluster*degree+local) must fit the stage
	// width; and the return network selects the destination cluster
	// with a single output digit.
	case c.GMModules > ipow(c.SwitchDegree, c.NetStages):
		return fmt.Errorf("arch: %s: %d-stage degree-%d network addresses at most %d modules, config has %d (raise -stages or -degree)",
			c.Name, c.NetStages, c.SwitchDegree, ipow(c.SwitchDegree, c.NetStages), c.GMModules)
	case c.Clusters*c.SwitchDegree > c.GMModules:
		return fmt.Errorf("arch: %s: CE-side ports (clusters x degree = %d) exceed network width (%d GM modules)",
			c.Name, c.Clusters*c.SwitchDegree, c.GMModules)
	case c.Clusters > c.SwitchDegree:
		return fmt.Errorf("arch: %s: clusters %d > switch degree %d (return network selects the cluster with one output digit)",
			c.Name, c.Clusters, c.SwitchDegree)
	case c.CEsPerCluster > c.SwitchDegree:
		return fmt.Errorf("arch: %s: CEs/cluster %d > switch degree %d (per-CE return links overflow the cluster's switch)",
			c.Name, c.CEsPerCluster, c.SwitchDegree)
	}
	return nil
}

// CEID identifies a computational element by cluster and local index.
type CEID struct {
	Cluster int
	Local   int
}

// Global returns the machine-wide CE index.
func (id CEID) Global(c Config) int { return id.Cluster*c.CEsPerCluster + id.Local }

// CEByGlobal converts a machine-wide CE index back to a CEID.
func (c Config) CEByGlobal(g int) CEID {
	return CEID{Cluster: g / c.CEsPerCluster, Local: g % c.CEsPerCluster}
}

// String implements fmt.Stringer.
func (id CEID) String() string { return fmt.Sprintf("c%d.ce%d", id.Cluster, id.Local) }

func base(name string, clusters, ces int) Config {
	return Config{
		Name:          name,
		Clusters:      clusters,
		CEsPerCluster: ces,
		GMModules:     32,
		NetStages:     2,
		SwitchDegree:  8,
	}
}

// The five configurations measured in the paper. The 1-, 4- and
// 8-processor configurations all use a single cluster (the paper's
// footnote: "all the 4 processors for the 4-processor configuration
// are from the same cluster").
var (
	Cedar1  = base("1proc", 1, 1)
	Cedar4  = base("4proc", 1, 4)
	Cedar8  = base("8proc", 1, 8)
	Cedar16 = base("16proc", 2, 8)
	Cedar32 = base("32proc", 4, 8)
)

// PaperConfigs lists the configurations in the order the paper's
// tables use.
func PaperConfigs() []Config {
	return []Config{Cedar1, Cedar4, Cedar8, Cedar16, Cedar32}
}

// Unclustered32 is the hypothetical flat machine discussed in
// Section 6: the same 32 CEs, but synchronizing as 32 independent
// tasks through global memory rather than hierarchically.
var Unclustered32 = func() Config {
	c := base("32flat", 4, 8)
	c.Name = "32flat"
	c.Unclustered = true
	return c
}()

// The scaled families: machines the paper could not build, opened up
// by the parametric topology layer so the Section-7 decomposition can
// be run as a capacity-planning tool. Memory modules and switch degree
// grow with the CE count so the CE-side wiring keeps fitting the
// network width; the paper-calibrated unit costs (module cycles, OS
// service times) are held fixed — see EXPERIMENTS.md, "Scaling study".
var (
	// Scaled64 doubles Cedar: 8 clusters of 8 CEs behind a two-stage
	// network of 8x8 switches and 64 memory modules.
	Scaled64 = Config{Name: "64proc", Clusters: 8, CEsPerCluster: 8,
		GMModules: 64, NetStages: 2, SwitchDegree: 8}
	// Scaled128 widens the switches to 16x16: 8 clusters of 16 CEs,
	// 128 modules.
	Scaled128 = Config{Name: "128proc", Clusters: 8, CEsPerCluster: 16,
		GMModules: 128, NetStages: 2, SwitchDegree: 16}
	// Scaled256 is the largest two-stage member 16x16 switches admit:
	// 16 clusters of 16 CEs, 256 modules.
	Scaled256 = Config{Name: "256proc", Clusters: 16, CEsPerCluster: 16,
		GMModules: 256, NetStages: 2, SwitchDegree: 16}
	// Deep64 trades stage count for switch width: the same 64 CEs as
	// Scaled64 but behind a three-stage network of 8x8 switches and
	// 512 modules — the configuration that exercises k > 2 routing.
	Deep64 = Config{Name: "64deep", Clusters: 8, CEsPerCluster: 8,
		GMModules: 512, NetStages: 3, SwitchDegree: 8}
	// Scaled1024 reaches the thousand-processor regime the many-core
	// machine-model literature studies: 32 clusters of 32 CEs behind a
	// three-stage network of 32x32 switches and 1024 modules (one per
	// CE, keeping the family's 1:1 module ratio). 32 is the smallest
	// degree whose CE-side wiring fits 32 clusters x 32 CEs, and three
	// 32-wide stages address exactly 1024 module prefixes.
	Scaled1024 = Config{Name: "1024proc", Clusters: 32, CEsPerCluster: 32,
		GMModules: 1024, NetStages: 3, SwitchDegree: 32}
	// Scaled4096 is the 4k-processor extreme: 64 clusters of 64 CEs,
	// three stages of 64x64 switches, 4096 modules. Intended for
	// capacity-planning sweeps and the intra-run benchmark trend, not
	// for CI-budget runs.
	Scaled4096 = Config{Name: "4096proc", Clusters: 64, CEsPerCluster: 64,
		GMModules: 4096, NetStages: 3, SwitchDegree: 64}
)

// ScaledConfigs lists the scaled families in ascending CE order.
func ScaledConfigs() []Config {
	return []Config{Scaled64, Deep64, Scaled128, Scaled256, Scaled1024, Scaled4096}
}

// Families returns every named configuration: the five paper
// machines, the unclustered Section-6 machine, and the scaled
// families.
func Families() []Config {
	out := PaperConfigs()
	out = append(out, Unclustered32)
	out = append(out, ScaledConfigs()...)
	return out
}

// FamilyByName returns the named configuration, matching Config.Name
// case-insensitively and also accepting the Go identifier (e.g.
// "Scaled64", "Cedar32").
func FamilyByName(name string) (Config, bool) {
	alias := map[string]Config{
		"cedar1": Cedar1, "cedar4": Cedar4, "cedar8": Cedar8,
		"cedar16": Cedar16, "cedar32": Cedar32,
		"unclustered32": Unclustered32,
		"scaled64":      Scaled64, "scaled128": Scaled128, "scaled256": Scaled256,
		"deep64":     Deep64,
		"scaled1024": Scaled1024, "scaled4096": Scaled4096,
	}
	lower := strings.ToLower(name)
	if c, ok := alias[lower]; ok {
		return c, true
	}
	for _, c := range Families() {
		if strings.ToLower(c.Name) == lower {
			return c, true
		}
	}
	return Config{}, false
}

// UnknownConfigError is the one error every layer reports for a name
// FamilyByName does not know.
func UnknownConfigError(name string) error {
	names := make([]string, 0, len(Families()))
	for _, c := range Families() {
		names = append(names, c.Name)
	}
	return fmt.Errorf("unknown configuration %q (known: %s)", name, strings.Join(names, ", "))
}

// Seconds converts a cycle count to seconds of machine time.
func Seconds(cycles int64) float64 { return float64(cycles) / CyclesPerSecond }

// Cycles converts seconds of machine time to cycles.
func Cycles(seconds float64) int64 { return int64(seconds * CyclesPerSecond) }
