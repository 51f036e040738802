package obs_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/metricreg"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/statfx"
)

// TestCollectorStopEndsSampling: the collector takes its rows on the
// statfx sampler's tick, one per sample, and stopping the sampler ends
// both.
func TestCollectorStopEndsSampling(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, arch.Cedar4, arch.DefaultCosts())
	c := obs.NewCollector([]metricreg.ScalarReader{
		{Desc: metricreg.Desc{Name: "one"}, Read: func() float64 { return 1 }},
	})
	s := statfx.NewSampler(m, 10, c)
	k.Run(30)
	s.Stop()
	k.Run(200)
	if c.Len() != 3 || s.Samples() != 3 {
		t.Fatalf("after Stop: %d rows, %d samples; want 3 of each", c.Len(), s.Samples())
	}
	if times := c.Times(); times[0] != 10 || times[2] != 30 {
		t.Fatalf("rows at %v, want [10 20 30]", times)
	}
}
