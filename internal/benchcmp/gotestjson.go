package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// nsOp matches the measurement line of a benchmark result inside a
// -json Output field. Depending on the go version the line either
// starts at the iteration count, " 4507105\t       542.3 ns/op\t...",
// with the name in an earlier Output event, or carries the name too,
// "BenchmarkKernelScheduleHold-2   \t13378114\t  17.40 ns/op\t...".
// Either way the result is keyed on the event's Test field.
var nsOp = regexp.MustCompile(`^(?:Benchmark\S*)?\s*\d+\t\s*([0-9.]+) ns/op`)

// testEvent is the subset of the `go test -json` schema we read.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// maxLine bounds one go test -json line. Benchmark logs are usually
// tiny, but a single Output event can carry an arbitrarily long line
// (a test dumping a whole artifact), and bufio.Scanner fails the
// entire parse when its buffer caps out — so the cap is generous.
const maxLine = 64 << 20

// ParseNsOp extracts benchmark name → ns/op from a go test -json
// stream. A benchmark appearing more than once keeps its last value
// (go test -count re-runs report several measurement lines). src names
// the stream in errors. Results are keyed on the event's Test field,
// which carries no -GOMAXPROCS suffix, so a baseline recorded on an
// 8-core machine still gates a 4-core runner.
func ParseNsOp(r io.Reader, src string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	for sc.Scan() {
		var ev testEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Action != "output" || ev.Test == "" {
			continue
		}
		m := nsOp.FindStringSubmatch(ev.Output)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[1], 64)
		if err != nil || ns <= 0 {
			continue
		}
		out[ev.Test] = ns
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	return out, nil
}

// LoadNsOp is ParseNsOp over a file.
func LoadNsOp(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseNsOp(f, path)
}

// LoadBaselines merges several baseline logs into one benchmark →
// ns/op map. A benchmark appearing in two baselines is an error — it
// would be ambiguous which number gates — reported with both sources.
func LoadBaselines(paths []string) (map[string]float64, error) {
	merged := map[string]float64{}
	src := map[string]string{}
	for _, path := range paths {
		m, err := LoadNsOp(path)
		if err != nil {
			return nil, err
		}
		for n, ns := range m {
			if prev, dup := src[n]; dup {
				return nil, fmt.Errorf("benchmark %q appears in both %s and %s; ambiguous baseline", n, prev, path)
			}
			merged[n] = ns
			src[n] = path
		}
	}
	return merged, nil
}

// EventsPerSec converts a name → ns/op map to name → events/sec.
func EventsPerSec(nsPerOp map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(nsPerOp))
	for n, ns := range nsPerOp {
		out[n] = 1e9 / ns
	}
	return out
}

// PathList collects a repeatable path flag; each occurrence may also
// carry a comma-separated list (flag.Value).
type PathList []string

// String joins the collected paths (flag.Value).
func (m *PathList) String() string { return strings.Join(*m, ",") }

// Set appends one flag occurrence, splitting commas (flag.Value).
func (m *PathList) Set(v string) error {
	for _, p := range strings.Split(v, ",") {
		if p != "" {
			*m = append(*m, p)
		}
	}
	return nil
}
