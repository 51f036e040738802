package gen

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/perfect"
)

// samples returns n apps generated from seeds 1..n of the default
// spec — the corpus the calibration and round-trip tests measure.
func samples(n int) []perfect.App {
	apps := make([]perfect.App, n)
	for i := range apps {
		s := Default()
		s.Seed = int64(i + 1)
		apps[i] = Generate(s)
	}
	return apps
}

// TestGenerateDeterministic: equal specs generate equal apps.
func TestGenerateDeterministic(t *testing.T) {
	s := Default()
	s.Seed = 42
	a, b := Generate(s), Generate(s)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different apps:\n%+v\n%+v", a, b)
	}
	s.Seed = 43
	if c := Generate(s); reflect.DeepEqual(a, c) {
		t.Errorf("different seeds generated the same app")
	}
}

// TestGenerateValid: every sample passes Validate (Generate panics on
// an invalid sample, so running it is the assertion) and is non-empty.
func TestGenerateValid(t *testing.T) {
	for i, a := range samples(200) {
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: %v", i+1, err)
		}
		if len(a.Phases) == 0 || a.TotalIterations() == 0 {
			t.Fatalf("seed %d: degenerate app %+v", i+1, a)
		}
	}
}

// TestCalibrationEnvelope: 100 default-spec samples bracket the five
// Perfect apps' published characteristics on every measured axis —
// the generated corpus reaches both below and above the paper's range,
// so sweeps over it cover the space the paper's points live in.
func TestCalibrationEnvelope(t *testing.T) {
	paper := EnvelopeOf(perfect.Apps())
	corpus := EnvelopeOf(samples(100))

	check := func(axis string, corpusMin, paperMin, paperMax, corpusMax float64) {
		t.Helper()
		if corpusMin > paperMin || corpusMax < paperMax {
			t.Errorf("%s: corpus [%g, %g] does not bracket paper [%g, %g]",
				axis, corpusMin, corpusMax, paperMin, paperMax)
		}
	}
	check("serial fraction", corpus.Min.SerialFrac, paper.Min.SerialFrac,
		paper.Max.SerialFrac, corpus.Max.SerialFrac)
	check("mean grain", corpus.Min.MeanGrain, paper.Min.MeanGrain,
		paper.Max.MeanGrain, corpus.Max.MeanGrain)
	check("gm intensity", corpus.Min.GMIntensity, paper.Min.GMIntensity,
		paper.Max.GMIntensity, corpus.Max.GMIntensity)
	check("footprint words", float64(corpus.Min.FootprintWords), float64(paper.Min.FootprintWords),
		float64(paper.Max.FootprintWords), float64(corpus.Max.FootprintWords))
	check("mean parallelism", corpus.Min.MeanParallelism, paper.Min.MeanParallelism,
		paper.Max.MeanParallelism, corpus.Max.MeanParallelism)
}

// TestRoundTripGeneratedSamples: parse(print(app)) is byte- and
// value-identical for 100 seeded generator samples (the generator leg
// of the round-trip property; the five paper apps and the presets are
// covered in package perfect).
func TestRoundTripGeneratedSamples(t *testing.T) {
	for i, want := range samples(100) {
		doc := perfect.PrintWorkload(want)
		got, err := perfect.ParseWorkload(doc)
		if err != nil {
			t.Fatalf("seed %d: parse(print): %v", i+1, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: parse(print(app)) != app\ngot  %+v\nwant %+v", i+1, got, want)
		}
		if again := perfect.PrintWorkload(got); string(again) != string(doc) {
			t.Errorf("seed %d: print(parse(doc)) != doc", i+1)
		}
	}
}

// TestSpecStringRoundTrip: ParseSpec(s.String()) == s for defaults and
// for a fully non-default spec.
func TestSpecStringRoundTrip(t *testing.T) {
	specs := []Spec{
		func() Spec { s := Default(); s.Seed = 7; return s }(),
		{Seed: 41, Name: "storm", Steps: 2, PhaseMin: 3, PhaseMax: 6, Mix: "xdoall",
			Gran: Range{500, 8000}, Jitter: 0.25, Serial: Range{0.001, 0.05},
			Pages: Range{16, 64}, GM: Range{0.05, 0.2}, Hot: 1},
		// Exponent forms: String prints 1e-05, whose '-' is no separator.
		func() Spec { s := Default(); s.Serial = Range{1e-05, 0.1}; s.GM = Range{1e-05, 1e-04}; return s }(),
	}
	for _, want := range specs {
		str := want.String()
		got, err := ParseSpec(str)
		if err != nil {
			t.Fatalf("%s: %v", str, err)
		}
		if got != want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", str, got, want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"bogus=1", `unknown key "bogus"`},
		{"seed", "not key=value"},
		{"mix=nope", "unknown mix"},
		{"gran=5-2", "max < min"},
		{"jitter=2", "jitter <= 1"},
		{"serial=0.5-1.5", "serial < 1"},
		{"phases=0-3", "1 <= min <= max"},
		{"seed=1,gran=1e15", "gran <= 1099511627776"},
		{"seed=1,gran=Inf", "not a finite number"},
		{"seed=1,gm=1e9", "gm_words <= 1048576"},
		{"seed=1,gm=0-0.5", "gm > 0"},
		{"seed=1,pages=1e15", "pages <= 2097152"},
		{"seed=1,phases=1-1000000000", "max <= 64"},
		{"seed=1,phases=64,gm=0.5-1,gran=10000", "data_words <= 1073741824"},
		{"seed=1,serial=0.999999", "work <= 1099511627776"},
		{"seed=1,jitter=NaN", "not a finite number"},
		{"seed=1,hot=NaN", "not a finite number"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestResolverGenForm: the gen: hook is installed by this package's
// init, so a Resolver materializes gen: sources deterministically.
func TestResolverGenForm(t *testing.T) {
	var r perfect.Resolver
	a, err := r.Resolve("gen:seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "gen7" {
		t.Errorf("name = %q, want gen7", a.Name)
	}
	b, err := r.Resolve("gen:seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("gen: resolution is not deterministic")
	}
	if _, err := r.Resolve("gen:bogus=1"); err == nil {
		t.Errorf("bad spec resolved without error")
	}
}

// TestHotSpecBiasesStride: with hot=1, every parallel phase's stride
// is a non-zero multiple of the 32-module interleave with a narrow
// reference vector — the shape that concentrates global traffic on
// one or two modules.
func TestHotSpecBiasesStride(t *testing.T) {
	s := Default()
	s.Seed = 5
	s.Hot = 1
	a := Generate(s)
	parallel := 0
	for _, p := range a.Phases {
		if p.Kind == perfect.PhaseSerial {
			continue
		}
		parallel++
		if p.GMStride == 0 || p.GMStride%32 != 0 {
			t.Errorf("phase %s: stride %d is not a 32-multiple hot-spot stride", p.Name, p.GMStride)
		}
		if p.GMWords > 4 {
			t.Errorf("phase %s: gm_words %d too wide for a hot-spot phase", p.Name, p.GMWords)
		}
	}
	if parallel == 0 {
		t.Fatal("no parallel phases generated")
	}
}
