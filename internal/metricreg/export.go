package metricreg

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// PromName sanitizes a registry name into a Prometheus metric name and
// prefixes the cedar namespace, exactly like the obs series exporter,
// so service metrics and simulation series share one vocabulary in
// dashboards.
func PromName(name string) string {
	var b strings.Builder
	b.WriteString("cedar_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// renderLabels renders a constant label block ("{a=\"x\",b=\"y\"}"),
// keys sorted; empty input renders "".
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// promType maps a registry metric onto the Prometheus vocabulary:
// gauges and level distributions (Desc.Level) expose as gauges; every
// other distribution renders one sample per cell, each a monotone
// accumulation, so it exposes as a counter.
func promType(d Desc) string {
	if d.Type == TypeGauge || d.Level {
		return "gauge"
	}
	return "counter"
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4) with the given constant labels on every
// sample. Scalar metrics render as one sample; distribution metrics
// render one sample per cell, the axis labels first, then the constant
// labels. Metrics appear in registration order — the format the serve
// smoke test greps on cedarserved's /metrics.
func WriteProm(w io.Writer, s Snapshot, labels map[string]string) error {
	constant := renderLabels(labels)
	for _, m := range s {
		name := PromName(m.Name)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			name, m.Help, name, promType(m.Desc)); err != nil {
			return err
		}
		if m.Type.scalar() {
			if _, err := fmt.Fprintf(w, "%s%s %g\n", name, constant, m.Value); err != nil {
				return err
			}
			continue
		}
		for _, c := range m.Cells {
			var lb strings.Builder
			lb.WriteByte('{')
			fmt.Fprintf(&lb, "%s=%q", labelName(m.AxisNames[0]), c.Label[0])
			if m.Type == TypeBivariate {
				fmt.Fprintf(&lb, ",%s=%q", labelName(m.AxisNames[1]), c.Label[1])
			}
			if constant != "" {
				lb.WriteByte(',')
				lb.WriteString(strings.TrimPrefix(strings.TrimSuffix(constant, "}"), "{"))
			}
			lb.WriteByte('}')
			if _, err := fmt.Fprintf(w, "%s%s %g\n", name, lb.String(), c.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// labelName sanitizes an axis name into a Prometheus label name
// (without the cedar_ metric prefix).
func labelName(name string) string {
	return strings.TrimPrefix(PromName(name), "cedar_")
}

// jsonMetric is the JSON export shape of one metric.
type jsonMetric struct {
	Name  string     `json:"name"`
	Type  string     `json:"type"`
	Unit  string     `json:"unit,omitempty"`
	Help  string     `json:"help,omitempty"`
	Value *float64   `json:"value,omitempty"`
	Axes  []string   `json:"axes,omitempty"`
	Cells []jsonCell `json:"cells,omitempty"`
}

// jsonCell is one distribution cell in the JSON export.
type jsonCell struct {
	Keys   []int64  `json:"keys"`
	Labels []string `json:"labels"`
	Value  float64  `json:"value"`
}

// MarshalJSON renders the snapshot as a deterministic JSON array of
// metric objects (registration order, cells key-sorted). Callers that
// need an envelope ({"app": ..., "metrics": [...]}) compose around it.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	out := make([]jsonMetric, 0, len(s))
	for _, m := range s {
		jm := jsonMetric{Name: m.Name, Type: m.Type.String(), Unit: m.Unit, Help: m.Help}
		if m.Type.scalar() {
			v := m.Value
			jm.Value = &v
		} else {
			jm.Axes = []string{m.AxisNames[0]}
			if m.Type == TypeBivariate {
				jm.Axes = append(jm.Axes, m.AxisNames[1])
			}
			jm.Cells = make([]jsonCell, 0, len(m.Cells))
			for _, c := range m.Cells {
				jc := jsonCell{Keys: []int64{c.Key[0]}, Labels: []string{c.Label[0]}, Value: c.Value}
				if m.Type == TypeBivariate {
					jc.Keys = append(jc.Keys, c.Key[1])
					jc.Labels = append(jc.Labels, c.Label[1])
				}
				jm.Cells = append(jm.Cells, jc)
			}
		}
		out = append(out, jm)
	}
	return json.Marshal(out)
}

// WriteJSON writes the snapshot as an indented JSON document:
// {"metrics": [...]}.
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]Snapshot{"metrics": s})
}

// csvField quotes a CSV field when it needs quoting.
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteCSV writes the snapshot as CSV: one row per scalar metric, one
// row per distribution cell, with the axis labels in the key columns.
func WriteCSV(w io.Writer, s Snapshot) error {
	if _, err := io.WriteString(w, "metric,type,unit,key1,key2,value\n"); err != nil {
		return err
	}
	for _, m := range s {
		if m.Type.scalar() {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,,,%g\n",
				csvField(m.Name), m.Type, csvField(m.Unit), m.Value); err != nil {
				return err
			}
			continue
		}
		for _, c := range m.Cells {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%g\n",
				csvField(m.Name), m.Type, csvField(m.Unit),
				csvField(c.Label[0]), csvField(c.Label[1]), c.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
