package obs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
)

// WriteCSV writes the collector's buffered series as CSV: a cycles and
// seconds column followed by one column per probe, rows in
// chronological order.
func WriteCSV(w io.Writer, c *Collector) error {
	names := c.Names()
	cols := make([][]float64, len(names))
	for i, n := range names {
		s, err := c.Series(n)
		if err != nil {
			return err
		}
		cols[i] = s
	}
	if _, err := fmt.Fprintf(w, "cycles,seconds,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for row, t := range c.Times() {
		var b strings.Builder
		fmt.Fprintf(&b, "%d,%.9f", int64(t), arch.Seconds(int64(t)))
		for i := range cols {
			fmt.Fprintf(&b, ",%g", cols[i][row])
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}
