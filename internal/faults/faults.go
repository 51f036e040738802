// Package faults injects hardware and operating-system faults into a
// simulated Cedar machine at chosen virtual times, so degraded-mode
// runs can be compared against the paper's healthy-machine overhead
// decomposition.
//
// A Plan is an ordered list of typed fault events. The text form,
// accepted by Parse and the cedarsim -fault flag, is a comma-separated
// list of
//
//	kind:target[xFACTOR][+SPAN]@TIME
//
// where TIME is the virtual cycle the fault fires at (float syntax,
// e.g. 1e6), FACTOR is a slow-down multiplier and SPAN a duration in
// cycles. The kinds:
//
//	ce:N@T        CE N fail-stops at cycle T
//	ce:Nx3@T      CE N's clock degrades 3x (slow-down, not fail)
//	module:N@T    global-memory module N goes offline (accesses remap)
//	module:Nx2@T  module N's service time inflates 2x
//	port:Nx4@T    forward stage-1 network port N runs at 1/4 bandwidth
//	lock:C@T+S    a rogue kernel thread holds cluster C's kernel lock
//	              for S cycles (C = -1: the global kernel lock)
//	storm:C@T     paging storm: cluster task C's page mappings are
//	              invalidated and re-fault on next touch (C = -1: all)
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/hpm"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// Kind identifies a fault type.
type Kind int

const (
	CEFail Kind = iota
	CESlow
	ModuleOffline
	ModuleSlow
	PortSlow
	LockStall
	PageStorm
	numKinds
)

var kindNames = [numKinds]string{
	"ce-fail", "ce-slow", "module-offline", "module-slow",
	"port-slow", "lock-stall", "page-storm",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Defaults applied by Parse when the spec omits them.
const (
	DefaultPortFactor = 4.0    // port:N@T → quarter bandwidth
	DefaultLockSpan   = 50_000 // lock:C@T → 2.5 ms holder stall
)

// Event is one fault: Kind fires against Target at virtual time At.
// Factor carries the slow-down multiplier for the *Slow kinds; Span
// the stall length for LockStall.
type Event struct {
	Kind   Kind
	Target int
	At     sim.Time
	Factor float64
	Span   sim.Duration
}

// String renders the event in the Parse grammar.
func (e Event) String() string {
	var kind string
	var factor, span string
	switch e.Kind {
	case CEFail:
		kind = "ce"
	case CESlow:
		kind = "ce"
		factor = fmt.Sprintf("x%g", e.Factor)
	case ModuleOffline:
		kind = "module"
	case ModuleSlow:
		kind = "module"
		factor = fmt.Sprintf("x%g", e.Factor)
	case PortSlow:
		kind = "port"
		factor = fmt.Sprintf("x%g", e.Factor)
	case LockStall:
		kind = "lock"
		span = fmt.Sprintf("+%d", int64(e.Span))
	case PageStorm:
		kind = "storm"
	default:
		kind = e.Kind.String()
	}
	return fmt.Sprintf("%s:%d%s@%d%s", kind, e.Target, factor, int64(e.At), span)
}

// Plan is an ordered set of fault events.
type Plan []Event

// String renders the plan in the Parse grammar (comma-separated).
func (p Plan) String() string {
	parts := make([]string, len(p))
	for i, e := range p {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Parse parses a comma-separated fault spec (see the package comment
// for the grammar).
func Parse(spec string) (Plan, error) {
	var plan Plan
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		ev, err := parseOne(item)
		if err != nil {
			return nil, fmt.Errorf("faults: bad spec %q: %w", item, err)
		}
		plan = append(plan, ev)
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("faults: empty spec %q", spec)
	}
	return plan, nil
}

// maxCycles bounds parsed times and spans: sim.Time is an int64 cycle
// count, and a float at or past 2^63 (or NaN) has no value there, so it
// would print back as a different plan.
const maxCycles = 1 << 63

func parseOne(item string) (Event, error) {
	var ev Event
	kindPart, rest, ok := strings.Cut(item, ":")
	if !ok {
		return ev, fmt.Errorf("missing ':' (want kind:target@time)")
	}
	body, timePart, ok := strings.Cut(rest, "@")
	if !ok {
		return ev, fmt.Errorf("missing '@time'")
	}
	// timePart = time [+ span]. Split on the last '+' so exponent
	// signs inside the time float stay untouched ("1e+6" is not a
	// span separator when no span follows a bare time... keep specs
	// to plain "1e6" exponents).
	var span sim.Duration
	if t2, spanPart, found := cutLast(timePart, '+'); found {
		s, err := strconv.ParseFloat(spanPart, 64)
		if err != nil || !(s > 0 && s < maxCycles) {
			return ev, fmt.Errorf("bad span %q", spanPart)
		}
		span = sim.Duration(s)
		timePart = t2
	}
	at, err := strconv.ParseFloat(timePart, 64)
	if err != nil || !(at >= 0 && at < maxCycles) {
		return ev, fmt.Errorf("bad time %q", timePart)
	}
	ev.At = sim.Time(at)

	// body = target [x factor].
	var factor float64
	if body2, facPart, found := cutLast(body, 'x'); found {
		f, err := strconv.ParseFloat(facPart, 64)
		if err != nil || !(f >= 1 && f <= math.MaxFloat64) {
			return ev, fmt.Errorf("bad factor %q (want finite >= 1)", facPart)
		}
		factor = f
		body = body2
	}
	target, err := strconv.Atoi(body)
	if err != nil {
		return ev, fmt.Errorf("bad target %q", body)
	}
	ev.Target = target
	ev.Factor = factor
	ev.Span = span

	switch kindPart {
	case "ce":
		if factor > 0 {
			ev.Kind = CESlow
		} else {
			ev.Kind = CEFail
		}
	case "module":
		if factor > 0 {
			ev.Kind = ModuleSlow
		} else {
			ev.Kind = ModuleOffline
		}
	case "port":
		ev.Kind = PortSlow
		if ev.Factor == 0 {
			ev.Factor = DefaultPortFactor
		}
	case "lock":
		ev.Kind = LockStall
		if ev.Span == 0 {
			ev.Span = DefaultLockSpan
		}
	case "storm":
		ev.Kind = PageStorm
	default:
		return ev, fmt.Errorf("unknown kind %q (want ce, module, port, lock, storm)", kindPart)
	}
	// A factor or span the kind has no use for would be dropped when
	// the plan prints, so the printed plan would mean something else.
	if span > 0 && ev.Kind != LockStall {
		return ev, fmt.Errorf("a span applies only to lock, not %s", kindPart)
	}
	if factor > 0 && (ev.Kind == LockStall || ev.Kind == PageStorm) {
		return ev, fmt.Errorf("a factor does not apply to %s", kindPart)
	}
	return ev, nil
}

// cutLast splits s around the last occurrence of sep, so factors and
// spans written in float syntax never swallow a leading digit.
func cutLast(s string, sep byte) (before, after string, found bool) {
	i := strings.LastIndexByte(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}

// Validate checks every event's target against the configuration.
func (p Plan) Validate(cfg arch.Config) error {
	offline := 0
	for i, e := range p {
		var err error
		switch e.Kind {
		case CEFail, CESlow:
			if e.Target < 0 || e.Target >= cfg.CEs() {
				err = fmt.Errorf("CE %d out of range [0,%d)", e.Target, cfg.CEs())
			}
		case ModuleOffline, ModuleSlow:
			if e.Target < 0 || e.Target >= cfg.GMModules {
				err = fmt.Errorf("module %d out of range [0,%d)", e.Target, cfg.GMModules)
			}
			if e.Kind == ModuleOffline {
				if offline++; offline >= cfg.GMModules {
					err = fmt.Errorf("cannot offline all %d modules", cfg.GMModules)
				}
			}
		case PortSlow:
			if e.Target < 0 || e.Target >= cfg.GMModules {
				err = fmt.Errorf("port %d out of range [0,%d)", e.Target, cfg.GMModules)
			}
		case LockStall, PageStorm:
			if e.Target < -1 || e.Target >= cfg.Clusters {
				err = fmt.Errorf("cluster %d out of range [-1,%d)", e.Target, cfg.Clusters)
			}
		default:
			err = fmt.Errorf("unknown kind %d", e.Kind)
		}
		if err == nil {
			switch e.Kind {
			case CESlow, ModuleSlow, PortSlow:
				if e.Factor < 1 {
					err = fmt.Errorf("factor %g < 1", e.Factor)
				}
			case LockStall:
				if e.Span <= 0 {
					err = fmt.Errorf("span %d <= 0", e.Span)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("faults: event %d (%s): %w", i, e, err)
		}
	}
	return nil
}

// Applied records one fault activation: what fired, when, and what the
// hardware/OS hook reported back.
type Applied struct {
	Event Event
	At    sim.Time
	Note  string
}

// Injector arms a Plan against a machine: each event is scheduled as a
// kernel event at its virtual time and dispatched to the matching
// hardware or OS hook when it fires. Activations are posted to the
// machine's monitor (hpm.EvFaultInject) and recorded for the report.
type Injector struct {
	M  *cluster.Machine
	OS *xylem.OS

	// OnCEFail, when set, is called after a CE fail-stops so the
	// runtime can re-evaluate barriers and job quorums that counted
	// on the dead CE.
	OnCEFail func(*cluster.CE)

	applied []Applied
}

// Arm schedules the plan's events. Call before the application starts;
// the plan must already be validated.
func (inj *Injector) Arm(plan Plan) {
	for _, ev := range plan {
		ev := ev
		inj.M.Kernel.Schedule(ev.At, func() { inj.apply(ev) })
	}
}

func (inj *Injector) apply(ev Event) {
	note := ""
	switch ev.Kind {
	case CEFail:
		ce := inj.M.CE(ev.Target)
		ce.Fail()
		note = fmt.Sprintf("CE %d fail-stopped (%d live)", ev.Target, inj.M.LiveCEs())
		if inj.OnCEFail != nil {
			inj.OnCEFail(ce)
		}
	case CESlow:
		inj.M.CE(ev.Target).SetSlowFactor(ev.Factor)
		note = fmt.Sprintf("CE %d clock degraded %gx", ev.Target, ev.Factor)
	case ModuleOffline:
		if inj.M.GM.OfflineModule(ev.Target) {
			note = fmt.Sprintf("module %d offline (%d total)", ev.Target, inj.M.GM.OfflineModules())
		} else {
			note = fmt.Sprintf("module %d kept online (last module)", ev.Target)
		}
	case ModuleSlow:
		inj.M.GM.InflateModule(ev.Target, ev.Factor)
		note = fmt.Sprintf("module %d service time inflated %gx", ev.Target, ev.Factor)
	case PortSlow:
		inj.M.GM.Net().Forward.DegradePort(1, ev.Target, ev.Factor)
		note = fmt.Sprintf("fwd stage-1 port %d degraded %gx", ev.Target, ev.Factor)
	case LockStall:
		inj.OS.LockStall(ev.Target, ev.Span)
		which := fmt.Sprintf("cluster %d", ev.Target)
		if ev.Target < 0 {
			which = "global"
		}
		note = fmt.Sprintf("%s kernel lock stalled %d cycles", which, int64(ev.Span))
	case PageStorm:
		n := inj.OS.InvalidateMappings(ev.Target)
		note = fmt.Sprintf("paging storm dropped %d mappings", n)
	}
	inj.M.Mon.Post(hpm.EvFaultInject, ev.Target, int64(ev.Kind))
	inj.applied = append(inj.applied, Applied{Event: ev, At: inj.M.Kernel.Now(), Note: note})
}

// Applied returns the activation log, in firing order.
func (inj *Injector) Applied() []Applied { return inj.applied }
