// Package qmon models "Q", the software measurement facility the paper
// uses for Section 5's completion-time breakdown: per-cluster user,
// system, interrupt, and (kernel lock) spin time (Figure 3).
//
// User time follows the paper's definition: it "includes the actual
// busy time, stall times due to global memory accesses or cache
// refills, the time spent spinning on user-level synchronization locks
// or waiting at the barriers" — i.e. runtime-library spinning is user
// time here, and is only separated out by the Section-6 breakdown.
package qmon

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Breakdown is the Figure-3 view of one cluster task (or of the whole
// machine): fractions of completion time.
type Breakdown struct {
	User      float64
	System    float64
	Interrupt float64
	Spin      float64 // kernel lock spin
	Idle      float64
}

// OSShare returns the total operating-system share (system + interrupt
// + spin), the quantity the paper tracks as "5-21% of the completion
// time".
func (b Breakdown) OSShare() float64 { return b.System + b.Interrupt + b.Spin }

// ForAccount computes the breakdown of a single CE's account over
// completion time ct.
func ForAccount(a *metrics.Account, ct sim.Time) Breakdown {
	if ct <= 0 {
		return Breakdown{}
	}
	f := func(d sim.Duration) float64 { return float64(d) / float64(ct) }
	b := Breakdown{
		User:      f(a.UserTotal()),
		System:    f(a.Get(metrics.CatOSSystem)),
		Interrupt: f(a.Get(metrics.CatOSInterrupt)),
		Spin:      f(a.Get(metrics.CatOSSpin)),
	}
	b.Idle = 1 - b.User - b.System - b.Interrupt - b.Spin
	if b.Idle < 0 {
		b.Idle = 0
	}
	return b
}
