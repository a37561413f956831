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

// event is one scheduled record, stored by value in the queue's heap: a
// callback (fn) or, when port is set, a port delivery whose message rides
// in the record itself. Scheduling therefore allocates nothing — the only
// memory an event owns is its slot in the heap's backing array, which the
// queue reuses.
type event struct {
	when Tick
	prio int    // lower runs first at equal tick
	seq  uint64 // FIFO among equal (when, prio) for determinism
	fn   func()
	port *Port // receiving port of a delivery; nil for a callback
	msg  Msg
}

// before is the queue's total order: (when, prio, seq).
func (e *event) before(o *event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	if e.prio != o.prio {
		return e.prio < o.prio
	}
	return e.seq < o.seq
}

// EventQueue is a deterministic discrete-event scheduler. It is not safe
// for concurrent use: a simulation is a single logical thread of time.
type EventQueue struct {
	now     Tick
	seq     uint64
	events  []event // binary min-heap by event.before
	stopped bool
}

// NewEventQueue returns an empty queue at tick zero.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Now returns the current simulated time.
func (q *EventQueue) Now() Tick { return q.now }

// Schedule runs fn at the given absolute tick. Scheduling in the past
// panics: it indicates a model bug.
func (q *EventQueue) Schedule(when Tick, fn func()) {
	q.ScheduleP(when, 0, fn)
}

// ScheduleP schedules with an explicit priority; lower priorities run
// first among events at the same tick.
func (q *EventQueue) ScheduleP(when Tick, prio int, fn func()) {
	if when < q.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, q.now))
	}
	e := q.place(when, prio)
	e.fn, e.port, e.msg = fn, nil, Msg{}
}

// deliver schedules a port message as an event on the receiving
// component's queue; it is the barrier's counterpart of Schedule and
// draws from the same seq counter, so deliveries order against local
// events exactly as scheduled callbacks would.
func (q *EventQueue) deliver(when Tick, port *Port, msg *Msg) {
	if when < q.now {
		panic(fmt.Sprintf("sim: delivery to %s at %d before now %d", port, when, q.now))
	}
	e := q.place(when, 0)
	e.fn, e.port, e.msg = nil, port, *msg
}

// place opens the heap slot for a new event keyed (when, prio, next seq)
// and returns it with the key filled in; the caller writes the payload in
// place, so an event is never copied on its way in. Parents move down
// into the hole rather than swapping. The new event carries the largest
// seq so far, so on a (when, prio) tie it never overtakes a parent.
func (q *EventQueue) place(when Tick, prio int) *event {
	q.seq++
	q.events = append(q.events, event{})
	h := q.events
	i := len(h) - 1
	for i > 0 {
		parent := &h[(i-1)/2]
		if when > parent.when || when == parent.when && prio >= parent.prio {
			break
		}
		h[i] = *parent
		i = (i - 1) / 2
	}
	e := &h[i]
	e.when, e.prio, e.seq = when, prio, q.seq
	return e
}

// removeTop deletes the earliest event: the last one sifts down from the
// root, children moving up into the hole. The vacated slot's pointers are
// cleared so the backing array does not pin closures or payloads.
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
	h[n].fn, h[n].port, h[n].msg.Ref = nil, nil, nil
	q.events = h[:n]
}

// After schedules fn delay ticks from now.
func (q *EventQueue) After(delay Tick, fn func()) {
	q.Schedule(q.now+delay, fn)
}

// Pending returns the number of scheduled events.
func (q *EventQueue) Pending() int { return len(q.events) }

// Step executes the single next event and reports whether one ran.
func (q *EventQueue) Step() bool {
	if len(q.events) == 0 {
		return false
	}
	top := &q.events[0]
	q.now = top.when
	if port := top.port; port != nil {
		msg := top.msg
		q.removeTop()
		port.handler(q.now, msg)
	} else {
		fn := top.fn
		q.removeTop()
		fn()
	}
	return true
}

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes. It is how models signal simulation exit (e.g., the
// workload wrote to the m5 exit device).
func (q *EventQueue) Stop() { q.stopped = true }

// Run executes events until the queue is empty or Stop is called, and
// returns the final tick. Executed-event counts flush to telemetry in
// batches so the per-event cost is a local increment.
func (q *EventQueue) Run() Tick {
	q.stopped = false
	var n uint64
	for !q.stopped && q.Step() {
		if n++; n == telemetryBatch {
			flushEvents(n)
			n = 0
		}
	}
	flushEvents(n)
	return q.now
}

// RunUntil executes events with tick <= limit, stopping early on Stop or
// an empty queue.
//
// Note the gap this leaves: time does NOT advance beyond the last
// executed event, so a caller stepping a quiesced component observes
// Now() < limit even though the queue is provably idle through limit.
// Use AdvanceTo when the caller needs Now() == limit afterwards.
func (q *EventQueue) RunUntil(limit Tick) Tick {
	q.stopped = false
	var n uint64
	for !q.stopped {
		if len(q.events) == 0 || q.events[0].when > limit {
			break
		}
		q.Step()
		if n++; n == telemetryBatch {
			flushEvents(n)
			n = 0
		}
	}
	flushEvents(n)
	return q.now
}

// AdvanceTo executes events with tick <= limit like RunUntil, then — if
// the run was not stopped early — advances Now() to limit itself, so a
// quiesced queue does not report stale time. Scheduling "after" a call
// to AdvanceTo is therefore relative to limit, not to the last event.
func (q *EventQueue) AdvanceTo(limit Tick) Tick {
	q.RunUntil(limit)
	if !q.stopped && limit > q.now {
		q.now = limit
	}
	return q.now
}

// noEvent is nextWhen's answer for an empty queue. No event can sit
// there: Scheduler.Run's limit is one tick below it.
const noEvent = ^Tick(0)

// nextWhen returns the tick of the next pending event, or noEvent.
func (q *EventQueue) nextWhen() Tick {
	if len(q.events) == 0 {
		return noEvent
	}
	return q.events[0].when
}

// runWindow executes events with tick < end (exclusive), never stopping
// early on Stop (conservative windows always complete), and returns the
// number of events executed. It is the scheduler's per-component inner
// loop; telemetry flushing is the scheduler's job, batched per component
// at window barriers.
func (q *EventQueue) runWindow(end Tick) (executed uint64) {
	for len(q.events) > 0 && q.events[0].when < end {
		q.Step()
		executed++
	}
	return executed
}
