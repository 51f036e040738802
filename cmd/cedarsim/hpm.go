package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	cedar "repro"
	"repro/internal/hpm"
)

// hpmSummary is the -hpm JSON document: run identity, per-event
// counts, the barrier and helper-wait pair durations per CE, and the
// hardware counters.
type hpmSummary struct {
	App         string           `json:"app"`
	Config      string           `json:"config"`
	CEs         int              `json:"ces"`
	Cycles      int64            `json:"cycles"`
	Records     int              `json:"records"`
	Dropped     uint64           `json:"dropped"`
	EventCounts map[string]int64 `json:"event_counts"`
	BarrierCyc  map[string]int64 `json:"barrier_cycles_per_ce"`
	HelperWait  map[string]int64 `json:"helper_wait_cycles_per_ce"`
	HW          hpmHardware      `json:"hw"`
}

// hpmHardware is the summary's hw object: global-memory module
// utilization, network port totals and the hottest port, the
// per-cluster shared caches, and the OS page-fault counters.
type hpmHardware struct {
	ModuleUtilization []float64 `json:"module_utilization"`
	Network           struct {
		Reservations uint64 `json:"reservations"`
		Delayed      uint64 `json:"delayed"`
		DelayCycles  int64  `json:"delay_cycles"`
	} `json:"network"`
	HottestPort struct {
		Name        string `json:"name"`
		DelayCycles int64  `json:"delay_cycles"`
	} `json:"hottest_port"`
	Clusters []hpmCluster `json:"clusters"`
	OS       struct {
		SeqFaults  uint64 `json:"sequential_faults"`
		ConcFaults uint64 `json:"concurrent_faults"`
	} `json:"os"`
}

type hpmCluster struct {
	Hits         uint64 `json:"cache_hits"`
	Misses       uint64 `json:"cache_misses"`
	QueuedCycles int64  `json:"cache_queued_cycles"`
}

// writeHPMJSON writes the run's cedarhpm summary document.
func writeHPMJSON(w io.Writer, run *cedar.Run) error {
	mon, m := run.Monitor, run.Machine
	s := hpmSummary{
		App:         run.Result.App,
		Config:      m.Cfg.Name,
		CEs:         m.Cfg.CEs(),
		Cycles:      int64(run.Result.CT),
		Records:     len(mon.Trace()),
		Dropped:     mon.Dropped(),
		EventCounts: map[string]int64{},
		BarrierCyc:  map[string]int64{},
		HelperWait:  map[string]int64{},
	}
	for ev := hpm.EventID(0); ev < hpm.NumEvents; ev++ {
		if n := mon.Count(ev); n > 0 {
			s.EventCounts[ev.String()] = int64(n)
		}
	}
	for ce, d := range hpm.PairDurations(mon.Trace(), hpm.EvBarrierEnter, hpm.EvBarrierExit) {
		s.BarrierCyc[fmt.Sprintf("ce%d", ce)] = int64(d)
	}
	for ce, d := range hpm.PairDurations(mon.Trace(), hpm.EvWaitStart, hpm.EvWaitEnd) {
		s.HelperWait[fmt.Sprintf("ce%d", ce)] = int64(d)
	}
	hw := &s.HW
	hw.ModuleUtilization = m.GM.ModuleUtilization(run.Result.CT)
	st := m.GM.Net().Stats()
	hw.Network.Reservations, hw.Network.Delayed, hw.Network.DelayCycles = st.Reservations, st.Delayed, int64(st.DelayTotal)
	name, delay := m.GM.Net().MaxPortDelay()
	hw.HottestPort.Name, hw.HottestPort.DelayCycles = name, int64(delay)
	for _, cl := range m.Clusters {
		hw.Clusters = append(hw.Clusters, hpmCluster{cl.Cache.Hits(), cl.Cache.Misses(), int64(cl.Cache.QueuedTotal())})
	}
	hw.OS.SeqFaults, hw.OS.ConcFaults = run.OS.SeqFaults(), run.OS.ConcFaults()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// writeHPMRecords writes the raw trace, one "at ce event aux" line per
// record.
func writeHPMRecords(w io.Writer, run *cedar.Run) error {
	bw := bufio.NewWriter(w)
	for _, rec := range run.Monitor.Trace() {
		fmt.Fprintf(bw, "%d %d %s %d\n", rec.At, rec.CE, rec.Event, rec.Aux)
	}
	return bw.Flush()
}
