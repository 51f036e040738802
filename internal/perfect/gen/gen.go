// Package gen is a seed-deterministic parametric generator for
// perfect.App workloads: it samples the space the five Perfect apps
// are five points of — construct mix, granularity and jitter
// distributions, serial fraction, footprint pages, global-memory
// intensity and stride, phase count — so sweeps and fuzzing can cover
// app space the way they already cover fault-schedule space.
//
// The distributions are calibrated so that a modest sample (100 apps
// from the default spec) brackets the published Perfect
// characteristics on every axis Characterize measures; the calibration
// test in this package asserts that envelope.
//
// A generator invocation is written as a gen: spec — a comma-separated
// key=value list after the "gen:" prefix:
//
//	gen:seed=7
//	gen:seed=41,phases=3-6,gran=500-8000,serial=0.001-0.05,hot=1
//
// Importing this package (a blank import suffices) registers the spec
// materializer with perfect.RegisterGen, which is what lets
// `perfect.Resolver` resolve gen: sources.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/perfect"
)

func init() {
	perfect.RegisterGen(func(spec string) (perfect.App, error) {
		s, err := ParseSpec(spec)
		if err != nil {
			return perfect.App{}, err
		}
		return Generate(s), nil
	})
}

// Range is an inclusive numeric interval.
type Range struct{ Min, Max float64 }

func (r Range) String() string {
	if r.Min == r.Max {
		return num(r.Min)
	}
	return num(r.Min) + "-" + num(r.Max)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Spec is one point-distribution over app space. The zero value of
// each field means "use the calibrated default" (see Default).
type Spec struct {
	// Seed drives every sampling decision; equal specs generate equal
	// apps.
	Seed int64
	// Name labels the generated app (default "gen<seed>").
	Name string
	// Steps is the timestep count (default 4; generated structure is
	// per-step identical, so more steps only lengthen the run).
	Steps int
	// PhaseMin/PhaseMax bound the parallel phase count per step.
	PhaseMin, PhaseMax int
	// Mix names the construct mix: "paper" (SDOALL-heavy with XDOALL
	// and main-cluster phases, like the five apps), "sdoall", "xdoall",
	// or "mc".
	Mix string
	// Gran is the per-iteration work distribution (compute cycles),
	// sampled log-uniformly.
	Gran Range
	// Jitter is the upper bound of the per-phase work jitter (each
	// phase's jitter is uniform in [0, Jitter]).
	Jitter float64
	// Serial is the serial-fraction distribution (serial compute /
	// total compute per step), sampled with a cube transform so small
	// fractions — where the paper's apps live — are dense.
	Serial Range
	// Pages is the footprint distribution in 512-word pages, sampled
	// log-uniformly.
	Pages Range
	// GM is the global-memory intensity distribution (GM words per
	// compute cycle in parallel phases), sampled log-uniformly.
	GM Range
	// Hot biases strides toward global-memory module hot-spots: each
	// parallel phase gets (with probability Hot) a stride that is a
	// multiple of the 32-module interleave with a narrow reference
	// vector, concentrating traffic on one or two modules.
	Hot float64
}

// Default is the calibrated sampling envelope: wide enough that 100
// seeds bracket the five Perfect apps on every measured axis, narrow
// enough that most samples are plausible loop-structure programs.
func Default() Spec {
	return Spec{
		Steps:    4,
		PhaseMin: 2, PhaseMax: 6,
		Mix:    "paper",
		Gran:   Range{200, 20000},
		Jitter: 0.5,
		Serial: Range{0, 0.15},
		Pages:  Range{4, 1024},
		GM:     Range{0.01, 0.5},
	}
}

// mixes maps mix names to the parallel-phase kind palette the
// generator draws from (serial phases are added by the serial-fraction
// knob, not the mix).
var mixes = map[string][]perfect.PhaseKind{
	"paper":  {perfect.PhaseSX, perfect.PhaseSX, perfect.PhaseSX, perfect.PhaseX, perfect.PhaseX, perfect.PhaseMC, perfect.PhaseMCAcross},
	"sdoall": {perfect.PhaseSX},
	"xdoall": {perfect.PhaseX},
	"mc":     {perfect.PhaseMC, perfect.PhaseMCAcross},
}

// MixNames lists the valid mix names.
func MixNames() []string {
	names := make([]string, 0, len(mixes))
	for n := range mixes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseSpec parses the gen: spec body (without the prefix): a
// comma-separated key=value list. Unset keys keep their Default
// values.
func ParseSpec(s string) (Spec, error) {
	sp := Default()
	s = strings.TrimSpace(strings.TrimPrefix(s, perfect.GenPrefix))
	if s == "" {
		return sp, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return sp, fmt.Errorf("gen: %q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			sp.Seed, err = strconv.ParseInt(val, 10, 64)
		case "name":
			sp.Name = val
		case "steps":
			sp.Steps, err = strconv.Atoi(val)
		case "phases":
			var r Range
			// Checked before the int conversion, which a huge count overflows.
			if r, err = parseRange(val); err == nil && r.Max > maxPhases {
				err = fmt.Errorf("%s violates max <= %d", r, maxPhases)
			}
			sp.PhaseMin, sp.PhaseMax = int(r.Min), int(r.Max)
		case "mix":
			if _, ok := mixes[val]; !ok {
				err = fmt.Errorf("unknown mix %q (want %s)", val, strings.Join(MixNames(), ", "))
			}
			sp.Mix = val
		case "gran":
			sp.Gran, err = parseRange(val)
		case "jitter":
			sp.Jitter, err = parseNum(val)
		case "serial":
			sp.Serial, err = parseRange(val)
		case "pages":
			sp.Pages, err = parseRange(val)
		case "gm":
			sp.GM, err = parseRange(val)
		case "hot":
			sp.Hot, err = parseNum(val)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return sp, fmt.Errorf("gen: %s: %v", key, err)
		}
	}
	if err := sp.validate(); err != nil {
		return sp, err
	}
	return sp, nil
}

// parseNum parses a finite number.
func parseNum(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}

// parseRange parses "lo-hi" or a single number (a point range). The
// separator is the first '-' that does not sign an exponent, so the
// "1e-05-0.5" String prints parses back.
func parseRange(s string) (Range, error) {
	lo, hi := s, s
	for i := 1; i < len(s); i++ {
		if s[i] == '-' && s[i-1] != 'e' && s[i-1] != 'E' {
			lo, hi = s[:i], s[i+1:]
			break
		}
	}
	min, err := parseNum(lo)
	if err != nil {
		return Range{}, fmt.Errorf("bad range %q: %v", s, err)
	}
	max, err := parseNum(hi)
	if err != nil {
		return Range{}, fmt.Errorf("bad range %q: %v", s, err)
	}
	if max < min {
		return Range{}, fmt.Errorf("range %q has max < min", s)
	}
	return Range{min, max}, nil
}

// maxPhases bounds the parallel phase count per step. The paper apps
// have a handful; Generate builds every phase up front.
const maxPhases = 64

// The loop shapes Generate samples each parallel phase from:
// iteration counts over the Perfect regime, tens to hundreds per phase
// instance, repeated up to maxRepeat times a step.
var (
	innerRange   = Range{8, 256} // XDOALL and main-cluster phases
	sxOuterRange = Range{2, 48}  // SDOALL outer loop
	sxInnerRange = Range{4, 64}  // SDOALL inner loop
)

const (
	maxRepeat    = 6
	maxHotStride = 32 * 4 // largest hot-spot stride
)

func (s Spec) validate() error {
	switch {
	case s.Steps < 1:
		return fmt.Errorf("gen: steps %d violates steps >= 1", s.Steps)
	case s.PhaseMin < 1 || s.PhaseMax < s.PhaseMin || s.PhaseMax > maxPhases:
		return fmt.Errorf("gen: phases %d-%d violates 1 <= min <= max <= %d", s.PhaseMin, s.PhaseMax, maxPhases)
	case s.Gran.Min < 1 || s.Gran.Max > perfect.MaxCycles:
		return fmt.Errorf("gen: gran %s violates 1 <= gran <= %d", s.Gran, int64(perfect.MaxCycles))
	case s.Jitter < 0 || s.Jitter > 1:
		return fmt.Errorf("gen: jitter %v violates 0 <= jitter <= 1", s.Jitter)
	case s.Serial.Min < 0 || s.Serial.Max >= 1:
		return fmt.Errorf("gen: serial %s violates 0 <= serial < 1", s.Serial)
	case s.Pages.Min < 1 || s.Pages.Max > perfect.MaxDataWords/512:
		return fmt.Errorf("gen: pages %s violates 1 <= pages <= %d", s.Pages, perfect.MaxDataWords/512)
	case s.GM.Min < 0 || s.GM.Min == 0 && s.GM.Max > 0:
		// GM is sampled log-uniformly, which needs a positive range.
		return fmt.Errorf("gen: gm %s violates gm > 0 (or gm = 0)", s.GM)
	case s.Hot < 0 || s.Hot > 1:
		return fmt.Errorf("gen: hot %v violates 0 <= hot <= 1", s.Hot)
	}
	if _, ok := mixes[s.Mix]; !ok {
		return fmt.Errorf("gen: unknown mix %q (want %s)", s.Mix, strings.Join(MixNames(), ", "))
	}
	// The largest app the ranges can generate: every sample at its top.
	iters := max(innerRange.Max, sxOuterRange.Max*sxInnerRange.Max)
	gmWords := s.GM.Max * s.Gran.Max
	if gmWords > perfect.MaxPerPhase {
		return fmt.Errorf("gen: gm %s at gran %s reaches %.4g gm_words, violating gm_words <= %d",
			s.GM, s.Gran, gmWords, perfect.MaxPerPhase)
	}
	// Phase spans (iterations x stride + vector) plus the serial phase.
	footprint := float64(s.PhaseMax)*(iters*max(gmWords, maxHotStride)+gmWords) + 512
	if footprint > perfect.MaxDataWords {
		return fmt.Errorf("gen: phases %d-%d at %.4g gm_words reach a %.4g-word footprint, violating data_words <= %d",
			s.PhaseMin, s.PhaseMax, gmWords, footprint, perfect.MaxDataWords)
	}
	parallelWork := float64(s.PhaseMax) * maxRepeat * iters * s.Gran.Max
	if serialWork := s.Serial.Max / (1 - s.Serial.Max) * parallelWork; serialWork > perfect.MaxCycles {
		return fmt.Errorf("gen: serial %s with phases %d-%d at gran %s reaches %.4g serial work, violating work <= %d",
			s.Serial, s.PhaseMin, s.PhaseMax, s.Gran, serialWork, int64(perfect.MaxCycles))
	}
	return nil
}

// String renders the spec in the gen: grammar (canonical key order;
// only non-default fields after seed). ParseSpec(s.String()) == s.
func (s Spec) String() string {
	d := Default()
	parts := []string{"seed=" + strconv.FormatInt(s.Seed, 10)}
	if s.Name != "" {
		parts = append(parts, "name="+s.Name)
	}
	if s.Steps != d.Steps {
		parts = append(parts, "steps="+strconv.Itoa(s.Steps))
	}
	if s.PhaseMin != d.PhaseMin || s.PhaseMax != d.PhaseMax {
		parts = append(parts, fmt.Sprintf("phases=%d-%d", s.PhaseMin, s.PhaseMax))
	}
	if s.Mix != d.Mix {
		parts = append(parts, "mix="+s.Mix)
	}
	if s.Gran != d.Gran {
		parts = append(parts, "gran="+s.Gran.String())
	}
	if s.Jitter != d.Jitter {
		parts = append(parts, "jitter="+num(s.Jitter))
	}
	if s.Serial != d.Serial {
		parts = append(parts, "serial="+s.Serial.String())
	}
	if s.Pages != d.Pages {
		parts = append(parts, "pages="+s.Pages.String())
	}
	if s.GM != d.GM {
		parts = append(parts, "gm="+s.GM.String())
	}
	if s.Hot != d.Hot {
		parts = append(parts, "hot="+num(s.Hot))
	}
	return perfect.GenPrefix + strings.Join(parts, ",")
}

// logUniform samples r log-uniformly (r.Min must be > 0 unless the
// range is a point).
func logUniform(rng *rand.Rand, r Range) float64 {
	if r.Min == r.Max {
		return r.Min
	}
	lo, hi := math.Log(r.Min), math.Log(r.Max)
	return math.Exp(lo + rng.Float64()*(hi-lo))
}

// Generate materializes one app from the spec, deterministically in
// the seed. The result always passes perfect.App.Validate.
func Generate(s Spec) perfect.App {
	rng := rand.New(rand.NewSource(s.Seed))
	name := s.Name
	if name == "" {
		name = fmt.Sprintf("gen%d", s.Seed)
	}
	palette := mixes[s.Mix]

	nPhases := s.PhaseMin + rng.Intn(s.PhaseMax-s.PhaseMin+1)
	var phases []perfect.Phase
	var parallelWork int64 // compute cycles per step across parallel phases
	for i := 0; i < nPhases; i++ {
		kind := palette[rng.Intn(len(palette))]
		work := int64(logUniform(rng, s.Gran))
		if work < 1 {
			work = 1
		}
		inner := int(logUniform(rng, innerRange))
		outer := 1
		if kind == perfect.PhaseSX {
			outer = int(logUniform(rng, sxOuterRange))
			inner = int(logUniform(rng, sxInnerRange))
		}
		repeat := 1 + rng.Intn(maxRepeat)
		// GM intensity is per-cycle; convert to per-iteration words.
		gmWords := int(logUniform(rng, s.GM) * float64(work))
		gmStride := 0
		if rng.Float64() < s.Hot {
			// Hot-spot bias: stride a multiple of the 32-module word
			// interleave with a narrow vector, so every iteration's
			// references land on the same module or two.
			gmStride = 32 * (1 + rng.Intn(maxHotStride/32))
			if gmWords > 4 {
				gmWords = 1 + rng.Intn(4)
			}
		}
		jitter := rng.Float64() * s.Jitter
		// Round the jitter so the textual form stays compact; keep the
		// exact float64 anyway (round-trip is exact either way).
		jitter = math.Round(jitter*100) / 100
		p := perfect.Phase{
			Kind:       kind,
			Name:       fmt.Sprintf("p%d-%s", i, kind),
			Repeat:     repeat,
			Outer:      outer,
			Inner:      inner,
			Work:       work,
			WorkJitter: jitter,
			GMWords:    gmWords,
			GMStride:   gmStride,
			ClusWords:  int(logUniform(rng, Range{8, 320})),
		}
		if kind == perfect.PhaseMCAcross {
			p.SerialCycles = int64(float64(work) * (0.05 + 0.3*rng.Float64()))
		}
		parallelWork += int64(p.Repeat) * int64(p.Total()) * work
		phases = append(phases, p)
	}

	// Serial fraction: cube-transformed sample (dense near zero, where
	// the Perfect apps live), realized as one serial phase up front
	// sized so serial/(serial+parallel) hits the sampled fraction.
	u := rng.Float64()
	frac := s.Serial.Min + (s.Serial.Max-s.Serial.Min)*u*u*u
	if frac > 0 {
		serialWork := int64(frac / (1 - frac) * float64(parallelWork))
		if serialWork > 0 {
			serial := perfect.Phase{
				Kind: perfect.PhaseSerial, Name: "p-serial",
				Work:    serialWork,
				GMWords: 32 + rng.Intn(256),
			}
			phases = append([]perfect.Phase{serial}, phases...)
		}
	}

	app := perfect.App{
		Name:          name,
		Steps:         s.Steps,
		DataWords:     int64(logUniform(rng, s.Pages)) * 512,
		CacheHitRatio: 0.85 + 0.1*rng.Float64(),
		Phases:        phases,
	}
	// Keep the truncated hit ratio short in the textual form.
	app.CacheHitRatio = math.Round(app.CacheHitRatio*1000) / 1000
	// The sampled footprint may be smaller than the phases' combined
	// span; grow it to the floor Validate enforces.
	if min := app.MinDataWords(); app.DataWords < min {
		app.DataWords = min
	}
	if err := app.Validate(); err != nil {
		// Every reachable sample satisfies Validate by construction;
		// a failure here is a generator bug, not an input error.
		panic(fmt.Sprintf("gen: generated invalid app: %v", err))
	}
	return app
}
