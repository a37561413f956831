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

// Len returns the number of entries.
func (v *Vector) Len() int { return len(v.vs) }

// StatName implements Stat.
func (v *Vector) StatName() string { return v.name }

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
