// Package obs is the simulator's observability layer. It is pure
// post-processing: the models post every traced event to one stream,
// the cedarhpm monitor (package hpm), and obs folds that stream and
// the run's accounts into artifacts standard tools can open:
//
//   - hierarchical spans (app → loop → iteration; OS spans for
//     syscalls, page faults, interrupt delivery, kernel lock spin;
//     slow memory stalls), exported as Chrome/Perfetto trace-event
//     JSON;
//   - pprof-style folded stacks weighted by virtual cycles, for
//     flamegraphs of where the completion time goes;
//   - ring-buffered time series (concurrency, the Figure-3
//     user/system/interrupt/spin split, memory and network pressure),
//     exported as CSV; each series is a scalar metric of the run's
//     registry, which owns the Prometheus exposition.
//
// The series Collector is a passive ring: the statfx sampler's tick
// appends its rows during an observed run, and a run without
// Options.Observe never creates one.
package obs

import "repro/internal/sim"

// Span is one closed interval of virtual time on a track.
type Span struct {
	// Track is the machine-wide CE index the span belongs to, or
	// TrackMachine for machine-scoped (async) spans such as loops and
	// fault windows.
	Track int
	// Name labels the span ("iter", "clus syscall", "gm-stall", ...).
	Name string
	// Cat is the span's category group ("rt", "os", "mem", "fault",
	// "loop"), used as the Perfetto cat field and the folded-stack
	// grouping.
	Cat string
	// Start and End bound the span in cycles.
	Start, End sim.Time
	// Aux carries a construct-dependent identifier (loop generation,
	// iteration index, page, address, fault target).
	Aux int64
}

// Instant is a point event on a track.
type Instant struct {
	Track int
	Name  string
	Cat   string
	At    sim.Time
	Aux   int64
}

// TrackMachine is the track for machine-scoped spans (loops, faults).
const TrackMachine = -1

// SeriesCapacity bounds each series ring buffer in samples. When the
// ring fills, the oldest samples are dropped.
const SeriesCapacity = 1 << 16
