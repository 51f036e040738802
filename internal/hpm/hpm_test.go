package hpm

import (
	"testing"

	"repro/internal/sim"
)

func TestPostAndTrace(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 16)
	k.Spawn("p", func(p *sim.Proc) {
		m.Post(EvLoopPost, 3, 7)
		p.Hold(100)
		m.Post(EvBarrierEnter, 3, 7)
	})
	k.RunAll()
	tr := m.Trace()
	if len(tr) != 2 {
		t.Fatalf("trace length = %d", len(tr))
	}
	if tr[0].Event != EvLoopPost || tr[0].At != 0 || tr[0].CE != 3 || tr[0].Aux != 7 {
		t.Fatalf("record 0 = %+v", tr[0])
	}
	if tr[1].At != 100 {
		t.Fatalf("record 1 at %d", tr[1].At)
	}
}

func TestNilMonitorIsSafe(t *testing.T) {
	var m *Monitor
	m.Post(EvLoopPost, 0, 0) // must not panic
	if m.Trace() != nil || m.Dropped() != 0 || m.Count(EvLoopPost) != 0 {
		t.Fatal("nil monitor returned data")
	}
}

func TestBufferDrops(t *testing.T) {
	k := sim.NewKernel(1)
	m := New(k, 2)
	for i := 0; i < 5; i++ {
		m.Post(EvIterStart, 0, int64(i))
	}
	if len(m.Trace()) != 2 {
		t.Fatalf("buffer holds %d", len(m.Trace()))
	}
	if m.Dropped() != 3 {
		t.Fatalf("dropped = %d", m.Dropped())
	}
	if m.Count(EvIterStart) != 5 {
		t.Fatalf("count = %d (counts must survive drops)", m.Count(EvIterStart))
	}
}

func TestPairDurations(t *testing.T) {
	trace := []Record{
		{Event: EvBarrierEnter, CE: 0, At: 100},
		{Event: EvBarrierEnter, CE: 1, At: 150},
		{Event: EvBarrierExit, CE: 0, At: 300},
		{Event: EvBarrierExit, CE: 1, At: 250},
		{Event: EvBarrierEnter, CE: 0, At: 400},
		{Event: EvBarrierExit, CE: 0, At: 450},
	}
	d := PairDurations(trace, EvBarrierEnter, EvBarrierExit)
	if d[0] != 250 { // 200 + 50
		t.Fatalf("CE 0 total = %d", d[0])
	}
	if d[1] != 100 {
		t.Fatalf("CE 1 total = %d", d[1])
	}
}

func TestPairDurationsUnmatched(t *testing.T) {
	trace := []Record{
		{Event: EvBarrierExit, CE: 0, At: 50}, // exit without enter: ignored
		{Event: EvBarrierEnter, CE: 0, At: 100},
	}
	d := PairDurations(trace, EvBarrierEnter, EvBarrierExit)
	if d[0] != 0 {
		t.Fatalf("unmatched pair produced %d", d[0])
	}
}

func TestEventNames(t *testing.T) {
	for ev := EventID(0); ev < NumEvents; ev++ {
		if ev.String() == "" {
			t.Fatalf("event %d unnamed", ev)
		}
	}
	if EventID(200).String() == "" {
		t.Fatal("out-of-range event unnamed")
	}
}
