package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// family is one named metric family in a registry.
type family struct {
	name, help, typ string
	labels          []string

	counter   *CounterVec
	gauge     *GaugeVec
	histogram *HistogramVec
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use.
// Registration is idempotent: asking for an existing name returns the
// existing family, so package-level metrics can be declared wherever
// they are used; a name re-registered with a different type or label
// set panics, as that is a programming error.
type Registry struct {
	mu       sync.RWMutex
	order    []*family
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry that the instrumented packages
// (sim, tasks, run, database) register into and that /metrics serves.
var Default = NewRegistry()

func (r *Registry) family(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s(%v), was %s(%v)",
				name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("telemetry: %s re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: append([]string(nil), labels...)}
	r.families[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, "counter", labels)
	if f.counter == nil {
		f.counter = &CounterVec{newVec(labels, func() *Counter { return &Counter{} })}
	}
	return f.counter
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.family(name, help, "gauge", labels)
	if f.gauge == nil {
		f.gauge = &GaugeVec{newVec(labels, func() *Gauge { return &Gauge{} })}
	}
	return f.gauge
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, "histogram", labels)
	if f.histogram == nil {
		bs := append([]float64(nil), buckets...)
		f.histogram = &HistogramVec{newVec(labels, func() *Histogram { return newHistogram(bs) })}
	}
	return f.histogram
}

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	fams := append([]*family(nil), r.order...)
	r.mu.RUnlock()
	var sb strings.Builder
	for _, f := range fams {
		f.write(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Handler returns an http.Handler serving the registry as /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// Snapshot flattens every sample to a name->value map. Labeled series
// use the exposition key, e.g. `name{k="v"}`; histograms contribute
// `name_sum` and `name_count` entries. Intended for tests and report
// generation, not for scraping.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.mu.RLock()
	fams := append([]*family(nil), r.order...)
	r.mu.RUnlock()
	for _, f := range fams {
		switch {
		case f.counter != nil:
			for _, c := range f.counter.children() {
				out[seriesKey(f.name, f.labels, c.values)] = c.metric.Value()
			}
		case f.gauge != nil:
			for _, c := range f.gauge.children() {
				out[seriesKey(f.name, f.labels, c.values)] = c.metric.Value()
			}
		case f.histogram != nil:
			for _, c := range f.histogram.children() {
				base := seriesKey(f.name, f.labels, c.values)
				out[base+"_sum"] = c.metric.Sum()
				out[base+"_count"] = float64(c.metric.Count())
			}
		}
	}
	return out
}

func seriesKey(name string, names, values []string) string {
	if len(names) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	writeLabels(&sb, names, values, "", 0)
	return sb.String()
}

// write renders one family, including HELP and TYPE comment lines.
func (f *family) write(sb *strings.Builder) {
	sb.WriteString("# HELP ")
	sb.WriteString(f.name)
	sb.WriteByte(' ')
	sb.WriteString(escapeHelp(f.help))
	sb.WriteByte('\n')
	sb.WriteString("# TYPE ")
	sb.WriteString(f.name)
	sb.WriteByte(' ')
	sb.WriteString(f.typ)
	sb.WriteByte('\n')
	switch {
	case f.counter != nil:
		for _, c := range f.counter.children() {
			writeSample(sb, f.name, f.labels, c.values, "", 0, c.metric.Value())
		}
	case f.gauge != nil:
		for _, c := range f.gauge.children() {
			writeSample(sb, f.name, f.labels, c.values, "", 0, c.metric.Value())
		}
	case f.histogram != nil:
		for _, c := range f.histogram.children() {
			h := c.metric
			bounds, cum := h.Buckets()
			for i, b := range bounds {
				sb.WriteString(f.name)
				sb.WriteString("_bucket")
				writeLabels(sb, f.labels, c.values, "le", b)
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatUint(cum[i], 10))
				sb.WriteByte('\n')
			}
			sb.WriteString(f.name)
			sb.WriteString("_bucket")
			writeLabels(sb, f.labels, c.values, "le", infBound)
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatUint(h.Count(), 10))
			sb.WriteByte('\n')
			writeSample(sb, f.name+"_sum", f.labels, c.values, "", 0, h.Sum())
			sb.WriteString(f.name)
			sb.WriteString("_count")
			writeLabels(sb, f.labels, c.values, "", 0)
			sb.WriteByte(' ')
			sb.WriteString(strconv.FormatUint(h.Count(), 10))
			sb.WriteByte('\n')
		}
	}
}

// infBound marks the +Inf histogram bucket for writeLabels.
var infBound = math.Inf(1)

func writeSample(sb *strings.Builder, name string, labelNames, labelValues []string, extraName string, extraBound float64, v float64) {
	sb.WriteString(name)
	writeLabels(sb, labelNames, labelValues, extraName, extraBound)
	sb.WriteByte(' ')
	sb.WriteString(formatValue(v))
	sb.WriteByte('\n')
}

// writeLabels renders `{a="x",le="0.5"}`; extraName is the histogram
// `le` label (extraBound of infBound renders "+Inf"). Nothing is
// written when there are no labels at all.
func writeLabels(sb *strings.Builder, names, values []string, extraName string, extraBound float64) {
	if len(names) == 0 && extraName == "" {
		return
	}
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		if math.IsInf(extraBound, 1) {
			sb.WriteString("+Inf")
		} else {
			sb.WriteString(formatValue(extraBound))
		}
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var sb strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}
