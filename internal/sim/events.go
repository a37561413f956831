// Package sim provides the discrete-event simulation kernel underneath
// every model in this repository: an event queue ordered by tick, a
// gem5-style statistics framework, and a configuration tree describing the
// simulated system.
//
// Following gem5's convention, one Tick is one picosecond, so a 1 GHz
// clock has a period of 1000 ticks.
package sim

import "fmt"

// Tick is simulated time in picoseconds.
type Tick uint64

// TicksPerSecond converts between ticks and seconds (1 THz tick rate).
const TicksPerSecond Tick = 1_000_000_000_000

// Seconds returns the tick count as floating-point seconds.
func (t Tick) Seconds() float64 { return float64(t) / float64(TicksPerSecond) }

// Clock converts cycles to ticks for a fixed frequency domain.
type Clock struct {
	Period Tick // ticks per cycle
}

// NewClock returns a Clock for the given frequency in Hz.
//
// Frequencies that do not divide the 1 THz tick rate cannot be
// represented exactly by an integer period; the period is rounded to the
// *nearest* tick (truncation would make every such clock run fast). The
// residual frequency error is at most 0.5/period, e.g. a 3 GHz clock gets
// a 333-tick period and runs ~0.1% fast — over 1e9 cycles it drifts
// ~333 µs of simulated time ahead of an ideal 3 GHz oscillator. Callers
// needing exact cycle accounting should pick frequencies whose period is
// integral (any divisor of 1 THz).
func NewClock(hz uint64) Clock {
	if hz == 0 {
		panic("sim: zero-frequency clock")
	}
	period := (uint64(TicksPerSecond) + hz/2) / hz
	if period == 0 {
		period = 1 // > 1 THz clamps to the tick rate
	}
	return Clock{Period: Tick(period)}
}

// Cycles converts a cycle count to ticks.
func (c Clock) Cycles(n uint64) Tick { return Tick(n) * c.Period }

// event is one scheduled callback, stored by value in the queue's heap.
// Scheduling therefore allocates nothing: the only memory an event owns
// is its slot in the heap's backing array, which the queue reuses.
type event struct {
	when Tick
	seq  uint64 // FIFO among equal ticks for determinism
	fn   func()
}

// before is the queue's total order: (when, seq).
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

// EventQueue is a deterministic discrete-event scheduler. It is not safe
// for concurrent use: a simulation is a single logical thread of time.
type EventQueue struct {
	now    Tick
	seq    uint64
	events []event // binary min-heap by event.before
}

// NewEventQueue returns an empty queue at tick zero.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Now returns the current simulated time.
func (q *EventQueue) Now() Tick { return q.now }

// Schedule runs fn at the given absolute tick. Scheduling in the past
// panics: it indicates a model bug.
func (q *EventQueue) Schedule(when Tick, fn func()) {
	if when < q.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, q.now))
	}
	q.place(when).fn = fn
}

// place opens the heap slot for a new event keyed (when, next seq) and
// returns it with the key filled in; the caller writes the callback in
// place, so an event is never copied on its way in. Parents move down
// into the hole rather than swapping. The new event carries the largest
// seq so far, so on a tick tie it never overtakes a parent.
func (q *EventQueue) place(when Tick) *event {
	q.seq++
	q.events = append(q.events, event{})
	h := q.events
	i := len(h) - 1
	for i > 0 {
		parent := &h[(i-1)/2]
		if when >= parent.when {
			break
		}
		h[i] = *parent
		i = (i - 1) / 2
	}
	e := &h[i]
	e.when, e.seq = when, q.seq
	return e
}

// removeTop deletes the earliest event: the last one sifts down from the
// root, children moving up into the hole. The vacated slot's callback is
// cleared so the backing array does not pin closures.
func (q *EventQueue) removeTop() {
	h := q.events
	n := len(h) - 1
	if n > 0 {
		last := &h[n]
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if r := child + 1; r < n && h[r].before(&h[child]) {
				child = r
			}
			if !h[child].before(last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = *last
	}
	h[n].fn = nil
	q.events = h[:n]
}

// After schedules fn delay ticks from now.
func (q *EventQueue) After(delay Tick, fn func()) {
	q.Schedule(q.now+delay, fn)
}

// Step executes the single next event and reports whether one ran.
func (q *EventQueue) Step() bool {
	if len(q.events) == 0 {
		return false
	}
	top := &q.events[0]
	q.now = top.when
	fn := top.fn
	q.removeTop()
	fn()
	return true
}

// Run executes events until the queue is empty and returns the final
// tick. Executed-event counts flush to telemetry in batches so the
// per-event cost is a local increment.
func (q *EventQueue) Run() Tick {
	var n uint64
	for q.Step() {
		if n++; n == telemetryBatch {
			flushEvents(n)
			n = 0
		}
	}
	flushEvents(n)
	return q.now
}

// RunUntil executes events with tick <= limit, stopping early on an
// empty queue. Time does not advance beyond the last executed event, so
// afterwards Now() may read below limit.
func (q *EventQueue) RunUntil(limit Tick) Tick {
	var n uint64
	for len(q.events) > 0 && q.events[0].when <= limit {
		q.Step()
		if n++; n == telemetryBatch {
			flushEvents(n)
			n = 0
		}
	}
	flushEvents(n)
	return q.now
}
