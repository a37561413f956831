package sim

import (
	"fmt"
	"sort"
	"strings"
)

// The statistics framework mirrors gem5's: models register named stats in
// a group; at the end of simulation the group dumps "stats.txt"-style
// output that the gem5art run machinery archives as a result artifact.

// Stat is any named statistic that can render itself.
type Stat interface {
	StatName() string
	Desc() string
	Value() float64
	Render() []string // lines in stats.txt format
}

// Scalar is a single accumulating value.
type Scalar struct {
	name string
	desc string
	v    float64
}

// NewScalar creates a scalar statistic.
func NewScalar(name, desc string) *Scalar { return &Scalar{name: name, desc: desc} }

// Inc adds one.
func (s *Scalar) Inc() { s.v++ }

// Add adds delta.
func (s *Scalar) Add(delta float64) { s.v += delta }

// Set replaces the value.
func (s *Scalar) Set(v float64) { s.v = v }

// StatName implements Stat.
func (s *Scalar) StatName() string { return s.name }

// Desc implements Stat.
func (s *Scalar) Desc() string { return s.desc }

// Value implements Stat.
func (s *Scalar) Value() float64 { return s.v }

// Render implements Stat.
func (s *Scalar) Render() []string {
	return []string{fmt.Sprintf("%-50s %20.6f  # %s", s.name, s.v, s.desc)}
}

// Vector is an indexed family of scalars (e.g., per-core counts).
type Vector struct {
	name string
	desc string
	vs   []float64
}

// NewVector creates a vector statistic with n entries.
func NewVector(name, desc string, n int) *Vector {
	return &Vector{name: name, desc: desc, vs: make([]float64, n)}
}

// Add adds delta to entry i.
func (v *Vector) Add(i int, delta float64) { v.vs[i] += delta }

// At returns entry i.
func (v *Vector) At(i int) float64 { return v.vs[i] }

// Len returns the number of entries.
func (v *Vector) Len() int { return len(v.vs) }

// StatName implements Stat.
func (v *Vector) StatName() string { return v.name }

// Desc implements Stat.
func (v *Vector) Desc() string { return v.desc }

// Value implements Stat; for a vector it is the total.
func (v *Vector) Value() float64 {
	t := 0.0
	for _, x := range v.vs {
		t += x
	}
	return t
}

// Render implements Stat.
func (v *Vector) Render() []string {
	out := make([]string, 0, len(v.vs)+1)
	for i, x := range v.vs {
		out = append(out, fmt.Sprintf("%-50s %20.6f  # %s[%d]",
			fmt.Sprintf("%s::%d", v.name, i), x, v.desc, i))
	}
	out = append(out, fmt.Sprintf("%-50s %20.6f  # %s (total)", v.name+"::total", v.Value(), v.desc))
	return out
}

// Histogram buckets samples into fixed-width bins plus an overflow bin.
type Histogram struct {
	name    string
	desc    string
	min     float64
	width   float64
	buckets []float64
	samples float64
	sum     float64
}

// NewHistogram creates a histogram with nbuckets bins of the given width
// starting at min; samples beyond the last bin land in an overflow bucket.
func NewHistogram(name, desc string, min, width float64, nbuckets int) *Histogram {
	return &Histogram{name: name, desc: desc, min: min, width: width,
		buckets: make([]float64, nbuckets+1)}
}

// Sample records one observation.
func (h *Histogram) Sample(v float64) {
	h.samples++
	h.sum += v
	idx := int((v - h.min) / h.width)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.buckets)-1 {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
}

// Mean returns the mean of all samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.samples == 0 {
		return 0
	}
	return h.sum / h.samples
}

// Samples returns the number of observations.
func (h *Histogram) Samples() float64 { return h.samples }

// StatName implements Stat.
func (h *Histogram) StatName() string { return h.name }

// Desc implements Stat.
func (h *Histogram) Desc() string { return h.desc }

// Value implements Stat; for a histogram it is the mean.
func (h *Histogram) Value() float64 { return h.Mean() }

// Render implements Stat.
func (h *Histogram) Render() []string {
	out := []string{
		fmt.Sprintf("%-50s %20.6f  # %s (samples)", h.name+"::samples", h.samples, h.desc),
		fmt.Sprintf("%-50s %20.6f  # %s (mean)", h.name+"::mean", h.Mean(), h.desc),
	}
	for i, b := range h.buckets {
		// Rounding the product forbids a fused multiply-add, so the
		// labels read the same on every GOARCH.
		lo := h.min + float64(float64(i)*h.width)
		label := fmt.Sprintf("%s::%g-%g", h.name, lo, lo+h.width)
		if i == len(h.buckets)-1 {
			label = fmt.Sprintf("%s::%g+", h.name, lo)
		}
		out = append(out, fmt.Sprintf("%-50s %20.6f  # %s", label, b, h.desc))
	}
	return out
}

// Formula is a statistic computed from others at dump time (e.g., IPC =
// instructions / cycles).
type Formula struct {
	name string
	desc string
	fn   func() float64
}

// NewFormula creates a derived statistic.
func NewFormula(name, desc string, fn func() float64) *Formula {
	return &Formula{name: name, desc: desc, fn: fn}
}

// StatName implements Stat.
func (f *Formula) StatName() string { return f.name }

// Desc implements Stat.
func (f *Formula) Desc() string { return f.desc }

// Value implements Stat.
func (f *Formula) Value() float64 { return f.fn() }

// Render implements Stat.
func (f *Formula) Render() []string {
	return []string{fmt.Sprintf("%-50s %20.6f  # %s", f.name, f.fn(), f.desc)}
}

// StatGroup collects the statistics of one simulated system.
type StatGroup struct {
	stats  []Stat
	byName map[string]Stat
}

// NewStatGroup returns an empty group.
func NewStatGroup() *StatGroup {
	return &StatGroup{byName: make(map[string]Stat)}
}

// Register adds a statistic to the group. Duplicate names panic: stats are
// declared once at model construction.
func (g *StatGroup) Register(s Stat) {
	if _, dup := g.byName[s.StatName()]; dup {
		panic("sim: duplicate stat " + s.StatName())
	}
	g.stats = append(g.stats, s)
	g.byName[s.StatName()] = s
}

// Scalar is a convenience that creates and registers a scalar.
func (g *StatGroup) Scalar(name, desc string) *Scalar {
	s := NewScalar(name, desc)
	g.Register(s)
	return s
}

// Vector is a convenience that creates and registers a vector.
func (g *StatGroup) Vector(name, desc string, n int) *Vector {
	v := NewVector(name, desc, n)
	g.Register(v)
	return v
}

// Formula is a convenience that creates and registers a formula.
func (g *StatGroup) Formula(name, desc string, fn func() float64) *Formula {
	f := NewFormula(name, desc, fn)
	g.Register(f)
	return f
}

// Histogram is a convenience that creates and registers a histogram.
func (g *StatGroup) Histogram(name, desc string, min, width float64, n int) *Histogram {
	h := NewHistogram(name, desc, min, width, n)
	g.Register(h)
	return h
}

// Lookup returns the named statistic, or nil.
func (g *StatGroup) Lookup(name string) Stat { return g.byName[name] }

// Values returns a flat name->value map of every statistic, suitable for
// archiving in the results database.
func (g *StatGroup) Values() map[string]float64 {
	out := make(map[string]float64, len(g.stats))
	for _, s := range g.stats {
		out[s.StatName()] = s.Value()
	}
	return out
}

// DeclareFrom registers an empty counterpart in g for every accumulating
// statistic in the sources that g does not already hold, preserving
// shape (vector length, histogram binning). It is how an aggregate group
// is derived from per-component groups before MergeGroups fills it;
// formulas are skipped — derived stats belong to the aggregate itself.
func (g *StatGroup) DeclareFrom(srcs ...*StatGroup) {
	for _, src := range srcs {
		for _, s := range src.stats {
			if _, have := g.byName[s.StatName()]; have {
				continue
			}
			switch o := s.(type) {
			case *Scalar:
				g.Scalar(o.name, o.desc)
			case *Vector:
				g.Vector(o.name, o.desc, len(o.vs))
			case *Histogram:
				g.Histogram(o.name, o.desc, o.min, o.width, len(o.buckets)-1)
			}
		}
	}
}

// MergeGroups refreshes every accumulating statistic in dst from the
// same-named statistics in srcs: scalars and vectors become the sum over
// sources, histograms the bucket-wise sum. It recomputes from scratch on
// every call, so it is safe to invoke repeatedly at window barriers while
// the sources keep accumulating. Formulas are left alone — they derive
// from dst's own (merged) stats at dump time. Source stats with no
// counterpart in dst are ignored; dst stats missing from a source simply
// receive no contribution from it. Mismatched shapes (a vector shorter in
// dst than in a source, differing histogram binning) panic: they indicate
// the aggregate group was declared inconsistently with the per-component
// groups.
func MergeGroups(dst *StatGroup, srcs ...*StatGroup) {
	for _, s := range dst.stats {
		switch d := s.(type) {
		case *Scalar:
			d.v = 0
			for _, src := range srcs {
				if o, ok := src.byName[d.name].(*Scalar); ok {
					d.v += o.v
				}
			}
		case *Vector:
			for i := range d.vs {
				d.vs[i] = 0
			}
			for _, src := range srcs {
				o, ok := src.byName[d.name].(*Vector)
				if !ok {
					continue
				}
				if len(o.vs) > len(d.vs) {
					panic(fmt.Sprintf("sim: merge of vector %s: source has %d entries, dst %d",
						d.name, len(o.vs), len(d.vs)))
				}
				for i, x := range o.vs {
					d.vs[i] += x
				}
			}
		case *Histogram:
			for i := range d.buckets {
				d.buckets[i] = 0
			}
			d.samples, d.sum = 0, 0
			for _, src := range srcs {
				o, ok := src.byName[d.name].(*Histogram)
				if !ok {
					continue
				}
				if len(o.buckets) != len(d.buckets) || o.min != d.min || o.width != d.width {
					panic(fmt.Sprintf("sim: merge of histogram %s: mismatched binning", d.name))
				}
				for i, x := range o.buckets {
					d.buckets[i] += x
				}
				d.samples += o.samples
				d.sum += o.sum
			}
		}
	}
}

// Dump renders the group in gem5 stats.txt format with stats sorted by
// name, bracketed by the begin/end markers gem5 emits.
func (g *StatGroup) Dump() string {
	sorted := make([]Stat, len(g.stats))
	copy(sorted, g.stats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StatName() < sorted[j].StatName() })
	var sb strings.Builder
	sb.WriteString("---------- Begin Simulation Statistics ----------\n")
	for _, s := range sorted {
		for _, line := range s.Render() {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("---------- End Simulation Statistics   ----------\n")
	return sb.String()
}
