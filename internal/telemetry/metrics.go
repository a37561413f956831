// Package telemetry is the observability substrate of gem5art-go: a
// concurrency-safe metrics registry rendered in Prometheus text
// exposition format, and an event bus that streams run-lifecycle
// transitions to the status daemon.
//
// The package deliberately has no dependencies on the rest of the
// repository, so every layer (sim, tasks, run, database, CLI) can
// instrument itself without import cycles. Metric names follow the
// Prometheus conventions: a `gem5art_` prefix, `_total` suffix on
// counters, and base units (seconds) in histogram names.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value, safe for concurrent use.
// The zero value is usable but normally counters are created through a
// Registry so they appear on /metrics.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v. Negative deltas are ignored: a
// counter only moves forward.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adjusts the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// DefBuckets are general-purpose latency buckets in seconds, matching
// the Prometheus client defaults.
var DefBuckets = []float64{
	.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// FastBuckets suit sub-millisecond operations such as embedded-database
// calls: 10µs up to 100ms.
var FastBuckets = []float64{
	.00001, .000025, .00005, .0001, .00025, .0005,
	.001, .0025, .005, .01, .025, .05, .1,
}

// Histogram buckets observations into cumulative Prometheus-style
// buckets with upper bounds. Safe for concurrent use.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, excluding +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the last slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the upper bounds and cumulative counts, excluding the
// implicit +Inf bucket (whose cumulative count equals Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.bounds {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// vec is the shared child-management core of the labeled metric types.
type vec[T any] struct {
	mu     sync.RWMutex
	names  []string
	kids   map[string]*child[T]
	create func() *T
}

type child[T any] struct {
	values []string
	metric *T
}

func newVec[T any](names []string, create func() *T) *vec[T] {
	return &vec[T]{names: names, kids: make(map[string]*child[T]), create: create}
}

// with returns the child for the given label values, creating it on
// first use. The number of values must match the declared label names.
func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.names) {
		panic("telemetry: label value count does not match declared labels")
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.kids[key]
	v.mu.RUnlock()
	if ok {
		return c.metric
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.kids[key]; ok {
		return c.metric
	}
	c = &child[T]{values: append([]string(nil), values...), metric: v.create()}
	v.kids[key] = c
	return c.metric
}

// children returns the children sorted by label values for stable
// exposition output.
func (v *vec[T]) children() []*child[T] {
	v.mu.RLock()
	out := make([]*child[T], 0, len(v.kids))
	for _, c := range v.kids {
		out = append(out, c)
	}
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, "\xff") < strings.Join(out[j].values, "\xff")
	})
	return out
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec struct{ *vec[Counter] }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// GaugeVec is a family of gauges partitioned by label values.
type GaugeVec struct{ *vec[Gauge] }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values...) }

// HistogramVec is a family of histograms partitioned by label values.
type HistogramVec struct {
	*vec[Histogram]
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }
