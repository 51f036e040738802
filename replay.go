package cedar

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/perfect"
)

// FaultWindows runs the app healthy on the configuration with the
// cedarhpm monitor armed and returns the merged virtual-time windows
// in which page faults were serviced. FuzzFailStopSchedule aims
// fail-stops at these windows through faults.SweepTimes — the hand-off
// races live inside them.
func FaultWindows(app perfect.App, cfg arch.Config, opts Options) ([]faults.Window, error) {
	opts.Faults = nil
	if opts.TraceCapacity <= 0 {
		opts.TraceCapacity = faultWindowTrace
	}
	run, err := SimulateRunErr(app, cfg, opts)
	if err != nil {
		return nil, err
	}
	if n := run.Monitor.Dropped(); n > 0 {
		return nil, fmt.Errorf("cedar: fault windows: %d trace records dropped; raise Options.TraceCapacity", n)
	}
	spans, _ := obs.FoldTrace(run.Monitor.Trace(), nil)
	var ws []faults.Window
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "pgflt") {
			ws = append(ws, faults.Window{Start: sp.Start, End: sp.End})
		}
	}
	return faults.MergeWindows(ws), nil
}

// faultWindowTrace is FaultWindows' trace capacity when the options
// leave it unset.
const faultWindowTrace = 1 << 22

// StatfxText renders the run's complete accounting — completion time,
// exact and sampled concurrency, fault classification counters, the
// Table-2 OS breakdown, and every CE's per-category account — as a
// canonical text block. Two runs of the same scenario produce
// byte-identical StatfxText; scenario.Reproduce, and through it the
// fault corpus gate TestCorpusReplay, compares runs with it.
//
// The block renders from the run's metric registry snapshot — the same
// source every exporter reads — and is byte-identical to the original
// direct rendering (golden-gated in testdata/golden/statfx_*.txt):
// cycle counts round-trip the registry's float64 cells exactly below
// 2^53, and float values are stored and read back bit-for-bit.
func (r *Run) StatfxText() string {
	res := r.Result
	snap := r.Metrics().Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "app=%s config=%s ct=%d failed_ces=%d\n", res.App, res.Cfg.Name,
		int64(snap.Value("ct_cycles")), int64(snap.Value("result_failed_ces")))
	fmt.Fprintf(&b, "faults seq=%d conc=%d\n",
		int64(snap.Value("faults_sequential_total")), int64(snap.Value("faults_concurrent_total")))
	fmt.Fprintf(&b, "concurrency sampled=%.9f", snap.Value("concurrency_sampled"))
	cc, _ := snap.Get("concurrency_cluster")
	for _, cell := range cc.Cells {
		fmt.Fprintf(&b, " c%d=%.9f", cell.Key[0], cell.Value)
	}
	b.WriteString("\n")
	ot, _ := snap.Get("os_time_cycles")
	oc, _ := snap.Get("os_events_total")
	for i := range ot.Cells {
		fmt.Fprintf(&b, "os %-14s time=%d count=%d\n",
			ot.Cells[i].Label[0], int64(ot.Cells[i].Value), int64(oc.Cells[i].Value))
	}
	bc, _ := snap.Get("ce_category_cycles")
	for i := 0; i < len(bc.Cells); {
		ce := bc.Cells[i].Key[0]
		fmt.Fprintf(&b, "ce%d", ce)
		for ; i < len(bc.Cells) && bc.Cells[i].Key[0] == ce; i++ {
			fmt.Fprintf(&b, " %s=%d", bc.Cells[i].Label[1], int64(bc.Cells[i].Value))
		}
		b.WriteString("\n")
	}
	return b.String()
}
