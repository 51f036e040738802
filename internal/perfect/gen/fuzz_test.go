package gen

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/cfrt"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// fuzzMaxCycles is the virtual-time budget a generated app runs under:
// enough for its first phases on 4proc, small enough that one input
// runs in milliseconds.
const fuzzMaxCycles = 100_000

// FuzzParseSpec feeds the gen: grammar hostile text. ParseSpec must
// never panic; a spec it accepts must print (Spec.String) to text that
// parses back to the same spec; and Generate must turn it into an app
// that passes Validate and runs on 4proc under a small cycle budget to
// completion or to the budget, never to a panic or a deadlock. The
// seed corpus in testdata/fuzz/FuzzParseSpec is the committed specs,
// Default().String(), and hostile specs that used to panic, exhaust
// memory or break the fixpoint.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpec(text)
		if err != nil {
			return
		}
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", text, sp.String(), err)
		}
		if again != sp {
			t.Fatalf("%q prints as %q, which parses to another spec:\n%+v\nwant\n%+v", text, sp.String(), again, sp)
		}
		a := Generate(sp)
		if err := a.Validate(); err != nil {
			t.Fatalf("%s generates an invalid app: %v", sp, err)
		}
		k := sim.NewKernel(1)
		k.SetMaxCycles(fuzzMaxCycles)
		m := cluster.NewMachine(k, arch.Cedar4, arch.DefaultCosts())
		o := xylem.New(m)
		rt := cfrt.New(m, o)
		_, err = rt.RunErr(a.Program(o.NewRegion(a.Name, a.DataWords)))
		var budget *sim.CycleBudgetError
		if err != nil && !errors.As(err, &budget) {
			t.Fatalf("%s on %s: %v", sp, arch.Cedar4.Name, err)
		}
	})
}
