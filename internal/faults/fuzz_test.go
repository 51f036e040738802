package faults

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
)

// FuzzPlan feeds the fault-plan grammar hostile text. Parse must never
// panic; a plan it accepts must print through Plan.String to a
// fixpoint — the printed text parses back to an equal plan that prints
// the same text; and Validate must never panic against any machine of
// the family. It is seeded from every plan: line of the committed
// scenario documents and from one spec of each kind.
func FuzzPlan(f *testing.F) {
	for _, dir := range []string{"../../testdata/scenarios", "../../testdata/faultcorpus", "../../testdata/scaling"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.scenario"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed scenarios in %s (%v)", dir, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			sc := bufio.NewScanner(bytes.NewReader(data))
			for sc.Scan() {
				if spec, ok := strings.CutPrefix(sc.Text(), "plan:"); ok {
					f.Add(strings.TrimSpace(spec))
				}
			}
		}
	}
	f.Add("ce:2@1e6,ce:5x3@500,module:17@5e5,module:9x2@0,port:4@0,port:40x2.5@20000,lock:-1@200+5e4,storm:1@7")
	// Spans and factors on kinds that print without them: Parse once
	// accepted these, and the printed plan lost the field.
	f.Add("ce:1@5+10")
	f.Add("storm:1x2@5")
	f.Add("lock:0x3@5")
	cfgs := arch.Families()
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := Parse(spec)
		if err != nil {
			return
		}
		text := plan.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", spec, text, err)
		}
		if !reflect.DeepEqual(again, plan) {
			t.Fatalf("%q prints as %q, which parses to a different plan:\n%+v\n%+v", spec, text, plan, again)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q prints as %q, then as %q", spec, text, got)
		}
		for _, cfg := range cfgs {
			_ = plan.Validate(cfg)
		}
	})
}
