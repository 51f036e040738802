package perfect

import (
	"errors"
	"testing"

	"repro/internal/arch"
	"repro/internal/cfrt"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/xylem"
)

// fuzzMaxCycles is the virtual-time budget an accepted fuzz document
// runs under: enough for the paper apps' first phases on 4proc, small
// enough that one input runs in milliseconds.
const fuzzMaxCycles = 100_000

// FuzzParseWorkload feeds the workload grammar hostile text.
// ParseWorkload must never panic; a document it accepts must print
// through PrintWorkload to a byte fixpoint; and the accepted app must
// run on 4proc under a small cycle budget to completion or to the
// budget, never to a panic or a deadlock. The seed corpus in
// testdata/fuzz/FuzzParseWorkload is the committed
// testdata/workloads/*.workload goldens plus PrintWorkload of the five
// paper apps.
func FuzzParseWorkload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseWorkload(data)
		if err != nil {
			return
		}
		doc := PrintWorkload(a)
		again, err := ParseWorkload(doc)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, doc)
		}
		if got := PrintWorkload(again); string(got) != string(doc) {
			t.Fatalf("canonical form is not a fixpoint:\n%s\nprints as\n%s", doc, got)
		}
		k := sim.NewKernel(1)
		k.SetMaxCycles(fuzzMaxCycles)
		m := cluster.NewMachine(k, arch.Cedar4, arch.DefaultCosts())
		o := xylem.New(m)
		rt := cfrt.New(m, o)
		_, err = rt.RunErr(a.Program(o.NewRegion(a.Name, a.DataWords)))
		var budget *sim.CycleBudgetError
		if err != nil && !errors.As(err, &budget) {
			t.Fatalf("run on %s: %v\n%s", arch.Cedar4.Name, err, doc)
		}
	})
}
