package sim

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateOrder = flag.Bool("update", false, "rewrite testdata/dispatch_order.golden")

// orderGolden is the recorded dispatch sequence of the seeded mixes
// below. The kernel may change how it switches between processes, but
// never which event runs when: every mix must reproduce this file byte
// for byte.
const orderGolden = "testdata/dispatch_order.golden"

// orderSeeds is the number of seeded mixes in the golden.
const orderSeeds = 24

var errOrderStop = errors.New("interrupt stop")

// orderMix runs one seeded random mix of every kernel feature that can
// affect dispatch order — Hold (zero, calendar-tier and heap-tier
// durations), Yield, Cond waits with and without timeouts, Signal and
// Broadcast, FCFS resources, callbacks that spawn, signal and abort,
// process panics, RunErr pauses at arbitrary horizons, cycle budgets
// and interrupt checks — and logs every observable dispatch: the time
// and process id each time a process resumes or ends, "cb" for each
// callback, and each RunErr's outcome. Process bodies append to the
// log from their coroutines and callbacks from RunErr's loop, which is
// safe because exactly one of them runs at a time. It also returns how
// many of the mix's own Holds fired their wake in place: a Hold that
// returns with no coroutine resume in between never left its process.
func orderMix(seed int64) (string, int) {
	var log strings.Builder
	inPlace := 0
	r := rand.New(rand.NewSource(seed))
	k := NewKernel(seed)
	conds := []*Cond{NewCond(k, "c0"), NewCond(k, "c1")}
	lock := NewLock(k, "lock")
	station := NewResource(k, "station", 2)
	if seed%3 == 0 {
		k.SetWatchdog(Duration(200 + r.Intn(300)))
	}
	panicked := false
	hold := func(p *Proc, d Duration) {
		s := k.Switches()
		p.Hold(d)
		if d > 0 && k.Switches() == s {
			inPlace++
		}
	}

	var spawn func()
	dur := func() Duration {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return Duration(calHorizon + r.Intn(2*calHorizon)) // heap tier
		default:
			return Duration(1 + r.Intn(9))
		}
	}
	callback := func() {
		fmt.Fprintf(&log, "%d cb\n", k.Now())
		switch r.Intn(6) {
		case 0:
			conds[r.Intn(2)].Signal()
		case 1:
			conds[r.Intn(2)].Broadcast()
		case 2:
			if len(k.procs) < 40 {
				spawn()
			}
		case 3:
			if len(k.procs) > 0 {
				k.Abort(k.procs[r.Intn(len(k.procs))])
			}
		}
	}
	body := func(p *Proc) {
		held := 0
		defer func() {
			fmt.Fprintf(&log, "%d p%d end aborted=%v\n", k.Now(), p.ID(), p.Aborted())
			for ; held > 0; held-- {
				station.Release()
			}
		}()
		fmt.Fprintf(&log, "%d p%d start\n", k.Now(), p.ID())
		steps := 5 + r.Intn(25)
		for i := 0; i < steps; i++ {
			op := r.Intn(16)
			switch op {
			case 0, 1, 2, 3:
				hold(p, dur())
			case 4:
				p.Yield()
			case 5:
				conds[r.Intn(2)].Wait(p)
			case 6:
				conds[r.Intn(2)].WaitTimeout(p, Duration(1+r.Intn(40)))
			case 7:
				conds[r.Intn(2)].Signal()
			case 8:
				conds[r.Intn(2)].Broadcast()
			case 9:
				lock.Use(p, dur())
			case 10:
				station.Acquire(p)
				held++
				hold(p, dur())
				held--
				station.Release()
			case 11:
				k.After(dur(), callback)
			case 12:
				e := k.After(dur(), callback)
				if r.Intn(2) == 0 {
					e.Cancel()
				}
			case 13:
				if q := k.procs[r.Intn(len(k.procs))]; q != p || r.Intn(4) == 0 {
					k.Abort(q)
				}
			case 14:
				if len(k.procs) < 40 {
					spawn()
				}
			case 15:
				if !panicked && r.Intn(4) == 0 {
					panicked = true
					panic("boom")
				}
				p.HoldUntil(k.Now() + dur())
			}
			fmt.Fprintf(&log, "%d p%d op%d\n", k.Now(), p.ID(), op)
		}
	}
	spawn = func() { k.Spawn("p", body) }
	for i := 0; i < 3+r.Intn(4); i++ {
		spawn()
	}
	for i := 0; i < 2+r.Intn(3); i++ {
		k.After(dur(), callback)
	}

	interrupts := 0
	for seg := 0; seg < 10 && !k.Idle(); seg++ {
		switch r.Intn(5) {
		case 0:
			k.SetMaxCycles(k.Now() + Time(r.Intn(300)))
		case 1:
			k.SetMaxCycles(0)
		case 2:
			stopAt := interrupts + 1 + r.Intn(6)
			k.SetInterrupt(uint64(1+r.Intn(16)), func() error {
				interrupts++
				if interrupts == stopAt {
					return errOrderStop
				}
				return nil
			})
		case 3:
			k.SetInterrupt(0, nil)
		}
		until := k.Now() + Time(r.Intn(500))
		n, err := k.RunErr(until)
		fmt.Fprintf(&log, "run until=%d fired=%d now=%d err=%v\n", until, n, k.Now(), err)
	}
	k.SetMaxCycles(0)
	k.SetInterrupt(0, nil)
	n, err := k.RunErr(Forever)
	fmt.Fprintf(&log, "run until=forever fired=%d now=%d err=%v\n", n, k.Now(), err)
	fmt.Fprintf(&log, "live=%d blocked=%d\n", k.LiveProcs(), len(k.BlockedProcs()))
	k.Shutdown()
	fmt.Fprintf(&log, "events=%d interrupts=%d\n", k.EventsFired(), interrupts)
	return log.String(), inPlace
}

// TestDispatchOrderGolden pins the exact per-event dispatch sequence
// of seeded random mixes. Regenerate with -update only for a change
// that is meant to alter event order. The mixes must also take Hold's
// in-place path, so the golden keeps covering it.
func TestDispatchOrderGolden(t *testing.T) {
	var got strings.Builder
	inPlace := 0
	for seed := int64(1); seed <= orderSeeds; seed++ {
		fmt.Fprintf(&got, "== seed %d\n", seed)
		log, n := orderMix(seed)
		got.WriteString(log)
		inPlace += n
	}
	if inPlace == 0 {
		t.Fatal("no Hold in the mixes fired its wake in place; the golden no longer covers that path")
	}
	t.Logf("%d Holds fired their wake in place", inPlace)
	if *updateOrder {
		if err := os.MkdirAll(filepath.Dir(orderGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(orderGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(orderGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("dispatch order diverges at line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("dispatch order length differs: got %d lines, want %d", len(gl), len(wl))
}
