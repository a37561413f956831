// Package analysis extracts experiment results from the database and
// renders them — the role Jupyter + Matplotlib play in the paper's
// workflow (§VI-A: "the database can then be queried... and generate
// plots to visualize results for further analysis"). Output targets are
// CSV (for external tools) and ASCII bar charts (for terminals and the
// benchmark harness).
package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"gem5art/internal/database"
)

// RunRow is one run document flattened for analysis.
type RunRow struct {
	Name       string
	Params     map[string]string
	Status     string
	Outcome    string
	SimSeconds float64
	Insts      float64
	// Energy columns, populated for runs executed with FSSpec.Energy
	// set (zero otherwise): total joules, average watts, and the
	// energy-delay product.
	Joules float64
	Watts  float64
	EDP    float64
}

// ExtractRuns flattens every run document matching filter.
func ExtractRuns(db database.Store, filter database.Doc) []RunRow {
	var out []RunRow
	for _, d := range db.Collection("runs").Find(filter) {
		out = append(out, Row(d))
	}
	return out
}

// Row flattens one run document.
func Row(d database.Doc) RunRow {
	row := RunRow{Params: map[string]string{}}
	row.Name, _ = d["name"].(string)
	row.Status, _ = d["status"].(string)
	row.Outcome, _ = d["outcome"].(string)
	row.SimSeconds, _ = d["sim_seconds"].(float64)
	row.Insts, _ = d["insts"].(float64)
	row.Joules, _ = d["energy_joules"].(float64)
	row.Watts, _ = d["energy_watts"].(float64)
	row.EDP, _ = d["energy_edp"].(float64)
	if ps, ok := d["params"].([]any); ok {
		for _, p := range ps {
			if s, ok := p.(string); ok {
				if k, v, ok := strings.Cut(s, "="); ok {
					row.Params[k] = v
				}
			}
		}
	}
	return row
}

// Series is one named sequence of (label, value) points.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Value returns the value at a label, or 0.
func (s Series) Value(label string) float64 {
	for i, l := range s.Labels {
		if l == label {
			return s.Values[i]
		}
	}
	return 0
}

// GroupBy builds series from run rows: one series per distinct value of
// seriesKey, one point per distinct value of labelKey, with the value
// produced by metric. Labels keep first-seen order; series are sorted by
// name for stable output.
func GroupBy(rows []RunRow, seriesKey, labelKey string, metric func(RunRow) float64) []Series {
	type cell struct{ sum, n float64 }
	data := map[string]map[string]*cell{}
	var labelOrder []string
	seenLabel := map[string]bool{}
	for _, r := range rows {
		sk := r.Params[seriesKey]
		lk := r.Params[labelKey]
		if !seenLabel[lk] {
			seenLabel[lk] = true
			labelOrder = append(labelOrder, lk)
		}
		if data[sk] == nil {
			data[sk] = map[string]*cell{}
		}
		c := data[sk][lk]
		if c == nil {
			c = &cell{}
			data[sk][lk] = c
		}
		c.sum += metric(r)
		c.n++
	}
	names := make([]string, 0, len(data))
	for n := range data {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Series, 0, len(names))
	for _, n := range names {
		s := Series{Name: n}
		for _, l := range labelOrder {
			if c, ok := data[n][l]; ok {
				s.Labels = append(s.Labels, l)
				s.Values = append(s.Values, c.sum/c.n)
			}
		}
		out = append(out, s)
	}
	return out
}

// WriteCSV emits header + rows.
func WriteCSV(w io.Writer, header []string, rows [][]string) error {
	write := func(fields []string) error {
		for i, f := range fields {
			if strings.ContainsAny(f, ",\"\n") {
				f = `"` + strings.ReplaceAll(f, `"`, `""`) + `"`
			}
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, f); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := write(r); err != nil {
			return err
		}
	}
	return nil
}

// BarChart renders grouped horizontal bars: for each label, one bar per
// series, scaled to width characters at the maximum magnitude. Negative
// values render with '<' bars so difference charts (Figure 6) read
// correctly.
func BarChart(title string, series []Series, width int) string {
	if width < 10 {
		width = 40
	}
	var max float64
	labelSet := map[string]bool{}
	var labels []string
	for _, s := range series {
		for i, l := range s.Labels {
			v := s.Values[i]
			if v < 0 {
				v = -v
			}
			if v > max {
				max = v
			}
			if !labelSet[l] {
				labelSet[l] = true
				labels = append(labels, l)
			}
		}
	}
	if max == 0 {
		max = 1
	}
	nameW := 0
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	for _, l := range labels {
		for si, s := range series {
			v := s.Value(l)
			n := int(v / max * float64(width))
			if n < 0 {
				n = -n
			}
			bar := strings.Repeat("#", n)
			if v < 0 {
				bar = strings.Repeat("<", n)
			}
			lab := l
			if si > 0 {
				lab = ""
			}
			fmt.Fprintf(&sb, "%-*s %-*s |%-*s %12.6g\n", labelW, lab, nameW, s.Name, width, bar, v)
		}
	}
	return sb.String()
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Matrix renders a 2-D outcome table (Figure 8 style): rows × cols with
// a cell renderer.
func Matrix(title string, rows, cols []string, cell func(r, c string) string) string {
	colW := 4
	for _, c := range cols {
		if len(c) > colW {
			colW = len(c)
		}
	}
	rowW := 0
	for _, r := range rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	fmt.Fprintf(&sb, "%-*s", rowW+1, "")
	for _, c := range cols {
		fmt.Fprintf(&sb, " %-*s", colW, c)
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s", rowW+1, r)
		for _, c := range cols {
			fmt.Fprintf(&sb, " %-*s", colW, cell(r, c))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
