package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer started
	ID, Parent int           // Parent 0: a top-level operation
	Op         int           // the top-level operation's span ID
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid: span then only times its function.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs fn inside a span named name and returns fn's duration. fn
// receives the span's ID, the parent of any span it opens.
func (t *tracer) span(name string, parent int, fn func(id int)) time.Duration {
	if t == nil {
		start := time.Now()
		fn(0)
		return time.Since(start)
	}
	start := time.Now()
	id := t.add(span{Name: name, Start: start.Sub(t.t0), End: -1, Parent: parent})
	fn(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0)
	t.mu.Unlock()
	return end.Sub(start)
}

// add records a finished span (or an open one, End -1) and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	s.Op = s.ID
	if s.Parent > 0 {
		s.Op = t.spans[s.Parent-1].Op
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.t0) }

// writeChrome writes the spans as Chrome trace-event JSON. Spans that
// overlap without nesting (concurrent jobs) go to separate lanes (tid).
func (t *tracer) writeChrome(path string, meta any) error {
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var lanes [][]time.Duration // per lane: end times of the open spans
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		lane := -1
		for l, open := range lanes {
			for len(open) > 0 && open[len(open)-1] <= s.Start {
				open = open[:len(open)-1]
			}
			lanes[l] = open
			if lane < 0 && (len(open) == 0 || open[len(open)-1] >= s.End) {
				lane = l
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s.End)
		events = append(events, event{Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cpuBuckets are the layers a CPU profile sample is charged to, in the
// order they are reported.
var cpuBuckets = []string{"sim", "calendar", "gmem", "network", "cluster", "cfrt", "xylem",
	"recording", "service", "go_sched", "go_gc", "other"}

// pkgBucket maps the program's packages, and the standard library's
// network stack, to their layer. Packages not listed (the cedar facade,
// workload models, the standard library, the benchmark itself) pass a
// sample on to their caller.
var pkgBucket = map[string]string{
	"repro/internal/sim":         "sim",
	"repro/internal/gmem":        "gmem",
	"repro/internal/network":     "network",
	"repro/internal/cluster":     "cluster",
	"repro/internal/cfrt":        "cfrt",
	"repro/internal/xylem":       "xylem",
	"repro/internal/metricreg":   "recording",
	"repro/internal/statfx":      "recording",
	"repro/internal/metrics":     "recording",
	"repro/internal/hpm":         "recording",
	"repro/internal/obs":         "recording",
	"repro/internal/core":        "recording",
	"repro/internal/qmon":        "recording",
	"repro/internal/engine":      "service",
	"repro/internal/serve":       "service",
	"repro/internal/resultcache": "service",
	"net/http":                   "service",
	"net":                        "service",
}

// gcFrames and schedFrames are runtime function-name prefixes of
// garbage collection and of goroutine scheduling (park, wake, channel
// handoff, OS-thread sleep).
var (
	gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.greyobject", "runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*mspan).sweep"}
	schedFrames = []string{"runtime.chan", "runtime.schedule", "runtime.findRunnable", "runtime.park",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.futex", "runtime.note",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.mPark", "runtime.runq",
		"runtime.netpoll", "runtime.selectgo", "runtime.lock2", "runtime.unlock2", "runtime.usleep",
		"runtime.osyield", "runtime.mcall", "runtime.execute", "runtime.send", "runtime.recv",
		"runtime.resetspinning", "runtime.procyield", "runtime.casgstatus", "runtime.goschedIfBusy"}
)

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a function symbol.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketOf charges one sample, its stack leaf first, to a layer:
// garbage collection anywhere on the stack; otherwise the scheduler if
// the runtime frames above the first program frame are scheduling;
// otherwise the nearest frame whose package has a layer.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if hasPrefix(fn, gcFrames) {
			return "go_gc"
		}
	}
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if pkg == "runtime" {
			if hasPrefix(fn, schedFrames) {
				return "go_sched"
			}
			continue
		}
		if strings.HasPrefix(fn, "repro/internal/sim.(*CalendarStore)") {
			return "calendar"
		}
		if b, ok := pkgBucket[pkg]; ok {
			return b
		}
	}
	return "other"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each
// bucket's share of the samples.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	total := 0.0
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		out[bucketOf(stack)] += float64(s.count)
		total += float64(s.count)
	}
	for b := range out {
		out[b] = ratio(out[b], total)
	}
	return out, nil
}

// profile is the part of profile.proto the bucketing needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location ID → function IDs, innermost first
	funcName map[uint64]uint64   // function ID → string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile parses the protobuf encoding of a pprof profile:
// Profile{2: Sample, 4: Location, 5: Function, 6: string_table}.
func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					if vals := pbUints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line{1: function_id}
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx >= uint64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// pbFields calls fn for each field of a protobuf message: v carries a
// varint or fixed-width value, b a length-delimited one.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field's values, packed (b) or not (v).
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
