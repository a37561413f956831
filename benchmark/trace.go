package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around its own call sites (the program under test is not
// instrumented). Spans of one op share its Op number; Parent is the
// index of the span that caused this one, or -1 for the op's root.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the benchmark ends, when they are
// rolled up by name into the report (rollUp). A nil *tracer
// is tracing switched off: every method is a no-op, so call sites need
// no branches and the untraced pass pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-measured span (handler wrappers time
// themselves and report afterwards).
func (t *tracer) record(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// all returns a copy of the recorded spans; indices match Parent.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration of every span called name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// interval is a half-open stretch of wall time.
type interval struct{ start, end time.Time }

// unionLength is the total time covered by at least one interval:
// overlapping stretches count once.
func unionLength(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start.Before(s[j].start) })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start.After(cur.end) {
			total += cur.end.Sub(cur.start)
			cur = iv
			continue
		}
		if iv.end.After(cur.end) {
			cur.end = iv.end
		}
	}
	return total + cur.end.Sub(cur.start)
}

// selfTime is a span's duration minus the part of it that its children
// cover: children are clipped to the parent and overlapping children
// count once, so concurrent children never make self time negative.
func selfTime(parent span, children []span) time.Duration {
	var ivs []interval
	for _, c := range children {
		iv := interval{c.Start, c.End}
		if iv.start.Before(parent.Start) {
			iv.start = parent.Start
		}
		if iv.end.After(parent.End) {
			iv.end = parent.End
		}
		if iv.end.After(iv.start) {
			ivs = append(ivs, iv)
		}
	}
	return parent.dur() - unionLength(ivs)
}

// layerTime is the per-span-name roll-up printed with a traced pass:
// where the wall time of the ops went, by layer boundary.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// rollUp aggregates spans by name with total and self time.
func rollUp(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*layerTime{}
	var order []string
	for i, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
			order = append(order, s.Name)
		}
		lt.Count++
		lt.TotalMs += float64(s.dur()) / float64(time.Millisecond)
		lt.SelfMs += float64(selfTime(s, children[i])) / float64(time.Millisecond)
	}
	sort.Strings(order)
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *agg[n])
	}
	return out
}

// idleFrac is 1 - busy/(capacity*wall): the share of worker capacity
// that sat idle while launches were in flight. busy is the plain sum
// of handler intervals (two handlers running at once use two slots);
// wall is the union of the launch intervals, so back-to-back launches
// do not count the gaps between them.
func idleFrac(handlers, launches []interval, capacity int) float64 {
	wall := unionLength(launches)
	if wall <= 0 || capacity <= 0 {
		return 0
	}
	var busy time.Duration
	for _, h := range handlers {
		busy += h.end.Sub(h.start)
	}
	f := 1 - float64(busy)/(float64(capacity)*float64(wall))
	if f < 0 {
		return 0
	}
	return f
}
