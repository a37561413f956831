package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler executes a set of Components over conservative time windows.
//
// The synchronization protocol is the classic conservative ("null
// message free", barrier-style) one: let L be the smallest declared link
// latency over every connected port. If the earliest pending event
// anywhere sits at tick T, then every event in [T, T+L) is already in
// some component's local queue — a message sent by an event at tick
// t >= T arrives no earlier than t+L >= T+L. So the scheduler repeatedly:
//
//  1. finds T = min over components of their next event tick, from a
//     dense per-component cache of those ticks,
//  2. lets every *active* component — one with an event before T+L —
//     execute its local events in [T, T+L), with no locks, because
//     components only touch their own state and stage outgoing messages
//     in a local outbox,
//  3. barriers, then delivers the active components' staged messages in
//     deterministic order (component registration order, then send
//     order) and flushes telemetry where a batch filled.
//
// Everything after step 1 touches only the active components, so a
// window costs what it contains: most windows of a CPU/memory system
// hold one active component out of many.
//
// Where a window executes is a host-time decision and never a result:
// a window with one active component runs on the calling goroutine, and
// a window with several goes to the worker pool only when the cost gate
// (see runGated) expects the split to save more than the hand-off costs.
// Intra-window ordering inside one component is the event queue's usual
// (when, prio, seq) key, and cross-component delivery order is fixed by
// the barrier, so a fixed seed produces bit-identical statistics whether
// the window runs on one worker or eight. That determinism contract is
// what lets parallel runs share the simulation cache with sequential
// ones (under an engine-specific salt).
type Scheduler struct {
	comps   []*Component
	workers int
	now     Tick
	stopped atomic.Bool
	running bool

	// lookahead is the conservative window length, derived at Run time
	// as the minimum declared latency over all connected ports.
	lookahead Tick
	// maxWindow bounds the window when no ports are connected (fully
	// independent components have unbounded lookahead in theory, but
	// Stop and telemetry still want periodic barriers).
	maxWindow Tick

	// next caches every component's next event tick (noEvent when its
	// queue is empty), indexed like comps. Only two things move a
	// component's entry during a run: executing its window and
	// delivering a message to it.
	next   []Tick
	active []int // indices of the current window's active components

	// The cost gate (see runGated): wall-clock cost per active component
	// of the last two inline probes and the last pool probe, how many
	// multi-component windows pass before the next probe, and which
	// placement it tries.
	inlinePer  [2]time.Duration
	poolPer    time.Duration
	untilProbe int
	probePool  bool
	pool       *windowPool // created by the first window the gate admits

	onBarrier func()

	// count is the run loop's private tally. published makes it readable
	// from other goroutines: windows is stored after every window (the run
	// watchdog polls it for liveness), pool and messages every
	// counterPublishEvery windows and at Run exit. The window loop
	// performs no atomic read-modify-write.
	count     struct{ windows, pool, messages uint64 }
	published struct{ windows, pool, messages atomic.Uint64 }
}

// Counters are a scheduler's lifetime totals. They describe host-side
// placement and traffic, never results: Windows and Messages are the
// same for every worker count, PoolWindows is whatever the gate decided.
type Counters struct {
	Windows       uint64 // synchronization rounds executed
	InlineWindows uint64 // windows run entirely on the calling goroutine
	PoolWindows   uint64 // windows split across the worker pool
	Messages      uint64 // port messages delivered at barriers
}

// DefaultMaxWindow is the window used when the component graph has no
// links: 10 µs of simulated time per synchronization round.
const DefaultMaxWindow Tick = 10_000_000

// defaultBarrierHookEvery is how many windows pass between onBarrier
// callbacks (stat merges); the hook also always runs at Run exit.
const defaultBarrierHookEvery = 64

// NewScheduler returns a scheduler that may split a window over up to the
// given number of goroutines. workers <= 0 selects the host's CPU count;
// workers == 1 executes components sequentially in registration order.
// The worker count never affects simulation results, only wall-clock
// time — that is the determinism contract, tested in scheduler_test.go
// and enforced end to end by the golden-stats test in cpu.
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Scheduler{workers: workers, maxWindow: DefaultMaxWindow,
		untilProbe: gateProbeEvery, poolPer: math.MaxInt64}
}

// Workers returns the configured worker count.
func (s *Scheduler) Workers() int { return s.workers }

// Components returns the registered components in registration order.
func (s *Scheduler) Components() []*Component { return s.comps }

// Now returns the simulated time the scheduler has completed through.
func (s *Scheduler) Now() Tick { return s.now }

// counterPublishEvery is how many windows pass between refreshes of the
// cross-goroutine pool and message counts.
const counterPublishEvery = 64

// Windows returns the number of synchronization rounds executed so far.
// It is safe to call from any goroutine while Run executes — the run
// watchdog polls it as the liveness signal — and advances with every
// window, wherever it ran.
func (s *Scheduler) Windows() uint64 { return s.published.windows.Load() }

// Counters returns the scheduler's lifetime totals. It is safe to call
// from any goroutine; mid-run, PoolWindows and Messages may trail by up to
// counterPublishEvery windows.
func (s *Scheduler) Counters() Counters {
	// Pool windows are read first: the count only grows and never exceeds
	// the window count, so the difference below cannot go negative.
	c := Counters{PoolWindows: s.published.pool.Load()}
	c.Windows = s.published.windows.Load()
	c.Messages = s.published.messages.Load()
	c.InlineWindows = c.Windows - c.PoolWindows
	return c
}

// publishCounters refreshes the batched part of the cross-goroutine view.
func (s *Scheduler) publishCounters() {
	s.published.pool.Store(s.count.pool)
	s.published.messages.Store(s.count.messages)
}

// SetMaxWindow overrides the window length used when no ports bound the
// lookahead. It has no effect on a linked component graph.
func (s *Scheduler) SetMaxWindow(w Tick) {
	if w == 0 {
		panic("sim: zero max window")
	}
	s.maxWindow = w
}

// OnBarrier installs a hook run single-threaded at window barriers
// (every defaultBarrierHookEvery windows and at Run exit). Models use it
// to merge per-component StatGroups into an aggregate view while every
// component is quiesced.
func (s *Scheduler) OnBarrier(fn func()) { s.onBarrier = fn }

// Stop makes the current Run return at the next window barrier. It is
// safe to call from component events (any worker goroutine). Because
// windows always complete fully, the set of executed events — and hence
// every statistic — is still independent of the worker count.
func (s *Scheduler) Stop() { s.stopped.Store(true) }

// Lookahead returns the conservative window length derived from the
// component graph's link latencies (0 before the first Run).
func (s *Scheduler) Lookahead() Tick { return s.lookahead }

// deriveLookahead validates the port graph and computes the window.
func (s *Scheduler) deriveLookahead() Tick {
	min := Tick(0)
	for _, c := range s.comps {
		for _, p := range c.ports {
			if p.peer == nil {
				continue
			}
			if min == 0 || p.latency < min {
				min = p.latency
			}
		}
	}
	if min == 0 {
		return s.maxWindow
	}
	return min
}

// Run executes events until every component's queue is empty or Stop is
// called, and returns the completed-through tick.
func (s *Scheduler) Run() Tick { return s.RunUntil(noEvent - 1) }

// RunUntil executes events with tick <= limit, stopping early on Stop or
// a drained system. Like EventQueue.RunUntil, the clock stays at the
// last executed window; use AdvanceTo to also consume the idle gap up to
// limit.
func (s *Scheduler) RunUntil(limit Tick) Tick {
	if s.running {
		panic("sim: Scheduler.Run is not reentrant")
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped.Store(false)
	s.lookahead = s.deriveLookahead()

	// Setup code may have scheduled onto any component since the last
	// run, so the next-tick cache is rebuilt here and maintained
	// incrementally from then on.
	s.next = s.next[:0]
	for _, c := range s.comps {
		s.next = append(s.next, c.eq.nextWhen())
	}
	// width is how many goroutines a window may be split over. More than
	// the Go scheduler can run at once would only queue behind each other.
	width := min(s.workers, len(s.comps), runtime.GOMAXPROCS(0))
	if s.pool != nil {
		width = s.pool.size
	}

	sinceHook, sincePublish := 0, 0
	for !s.stopped.Load() {
		// T = earliest pending event across all components. Staged
		// messages never exist here: the previous barrier delivered them.
		nextT := noEvent
		for _, t := range s.next {
			if t < nextT {
				nextT = t
			}
		}
		if nextT == noEvent || nextT > limit {
			break
		}
		end := nextT + s.lookahead
		if end < nextT || end > limit {
			end = limit + 1 // execute events at limit itself
		}
		s.active = s.active[:0]
		for i, t := range s.next {
			if t < end {
				s.active = append(s.active, i)
			}
		}

		// Execute the window. Components only mutate their own state, so
		// placement is free to vary: one active component always runs
		// here, several run here unless the gate admits them to the pool.
		if k := len(s.active); k == 1 || width == 1 {
			s.runInline(end)
		} else {
			s.runGated(end, width)
		}
		s.count.windows++
		s.published.windows.Store(s.count.windows)

		s.deliver(end)
		if sincePublish++; sincePublish >= counterPublishEvery {
			sincePublish = 0
			s.publishCounters()
		}
		if s.onBarrier != nil {
			if sinceHook++; sinceHook >= defaultBarrierHookEvery {
				sinceHook = 0
				s.onBarrier()
			}
		}
		if end > limit {
			s.now = limit
		} else {
			s.now = end
		}
	}
	for _, c := range s.comps {
		flushEvents(c.windowEvents)
		c.windowEvents = 0
	}
	s.publishCounters()
	if s.onBarrier != nil {
		s.onBarrier()
	}
	return s.now
}

// AdvanceTo runs events through limit and then advances the scheduler
// clock to limit itself (unless Stop fired), mirroring
// EventQueue.AdvanceTo: a quiesced system never reports stale time.
func (s *Scheduler) AdvanceTo(limit Tick) Tick {
	s.RunUntil(limit)
	if !s.stopped.Load() && limit > s.now {
		s.now = limit
	}
	return s.now
}

// Close stops the worker pool, if a window ever needed one, and waits
// for its goroutines to exit. The scheduler stays usable: a later window
// the gate admits starts a new pool.
func (s *Scheduler) Close() {
	if s.pool != nil {
		s.pool.close()
		s.pool = nil
	}
}

// The cost gate decides whether a window with several active components
// is worth handing to the worker pool, by measuring both placements on
// the traffic itself. Every gateProbeEvery-th multi-component window is a
// probe, run under a wall-clock timer; probes alternate between inline
// and — once windows are heavy enough to consider — the pool, and each
// records its cost per active component. The windows in between go
// wherever the last probes say a component is cheaper. A pool probe pays
// for everything the split really costs on this host (waking helpers,
// imbalance, cores shared with a sibling thread or a neighbour), so the
// gate needs no model of any of it, and because both sides keep being
// probed it follows the traffic in both directions.
//
// The inline estimate is the smaller of the last two inline probes: noise
// — a preemption, a collection — only ever inflates a sample, and one
// inflated sample must not send the next stretch of cheap windows to the
// pool. The gate only ever chooses where a window executes, which no
// result depends on; a wrong estimate costs host time, nothing else.
const (
	// gateProbeEvery spaces the probes: two clock reads cost about as
	// much as a small window, so they must stay rare. The first probe is
	// taken this many windows into a run, past the cold start.
	gateProbeEvery = 16
	// poolFloor is the serial cost below which a window is never offered
	// to the pool, not even as a probe: releasing a blocked helper and
	// waiting for it costs about this much by itself.
	poolFloor = 20 * time.Microsecond
)

// runGated executes a window with several active components on up to
// width goroutines, as a probe or wherever the probes say is cheaper.
func (s *Scheduler) runGated(end Tick, width int) {
	k := time.Duration(len(s.active))
	inlinePer := min(s.inlinePer[0], s.inlinePer[1])
	heavy := inlinePer*k > poolFloor
	if s.untilProbe > 0 {
		s.untilProbe--
		if heavy && s.poolPer < inlinePer {
			s.runPool(end, width)
		} else {
			s.runInline(end)
		}
		return
	}
	s.untilProbe = gateProbeEvery
	t0 := time.Now()
	if heavy && s.probePool {
		s.runPool(end, width)
		s.poolPer = time.Since(t0) / k
	} else {
		s.runInline(end)
		s.inlinePer[0], s.inlinePer[1] = s.inlinePer[1], time.Since(t0)/k
	}
	s.probePool = !s.probePool
}

// runPool executes the window on the worker pool, creating it if this is
// the first window to need one.
func (s *Scheduler) runPool(end Tick, width int) {
	if s.pool == nil {
		s.pool = newWindowPool(s, width)
	}
	s.pool.run(end, min(len(s.active), width))
	s.count.pool++
}

// runComponent executes component i's events before end and refreshes
// its next-tick entry. It is the one function that runs on pool
// goroutines; everything it writes belongs to component i.
func (s *Scheduler) runComponent(i int, end Tick) {
	c := s.comps[i]
	c.windowEvents += c.eq.runWindow(end)
	s.next[i] = c.eq.nextWhen()
}

// runInline executes the window's active components on the calling
// goroutine, in registration order.
func (s *Scheduler) runInline(end Tick) {
	for _, i := range s.active {
		s.runComponent(i, end)
	}
}

// deliver drains the active components' outboxes in deterministic order
// — only a component that ran can have staged anything — scheduling each
// message as a delivery event on its receiver, and flushes the executed
// event count of any component whose telemetry batch filled.
func (s *Scheduler) deliver(windowEnd Tick) {
	for _, i := range s.active {
		c := s.comps[i]
		if c.windowEvents >= telemetryBatch {
			flushEvents(c.windowEvents)
			c.windowEvents = 0
		}
		if len(c.outbox) == 0 {
			continue
		}
		for k := range c.outbox {
			st := &c.outbox[k]
			if st.when < windowEnd {
				// A message arriving inside the window it was sent in
				// would break the conservative bound; the port latency
				// checks make this unreachable short of a kernel bug.
				panic(fmt.Sprintf("sim: message on %s delivers at %d inside window ending %d",
					st.port, st.when, windowEnd))
			}
			recv := st.port.peer
			if recv.handler == nil {
				panic(fmt.Sprintf("sim: message for port %s but no OnReceive handler", recv))
			}
			recv.owner.eq.deliver(st.when, recv, &st.msg)
			st.msg.Ref = nil // the outbox array is reused; do not pin payloads
			if ri := recv.owner.index; st.when < s.next[ri] {
				s.next[ri] = st.when
			}
		}
		s.count.messages += uint64(len(c.outbox))
		c.outbox = c.outbox[:0]
	}
}

// windowPool is size-1 helper goroutines that, with the goroutine inside
// Scheduler.RunUntil as participant 0, execute one window's active
// components: participant j takes active[j], active[j+m], … of the m
// participants the window uses. The caller releases only the helpers the
// window needs, each through its own channel, runs its own share, and
// waits for theirs. The release and the wait are the only
// synchronization; between them each component is touched by exactly one
// goroutine. An idle helper is blocked on its channel and costs nothing.
type windowPool struct {
	s      *Scheduler
	size   int         // participants, the caller included
	start  []chan Tick // start[j] releases helper j with the window's end
	done   sync.WaitGroup
	exited sync.WaitGroup

	participants int // of the window being executed
}

func newWindowPool(s *Scheduler, size int) *windowPool {
	p := &windowPool{s: s, size: size, start: make([]chan Tick, size)}
	for j := 1; j < size; j++ {
		p.start[j] = make(chan Tick)
		p.exited.Add(1)
		go func() {
			defer p.exited.Done()
			for end := range p.start[j] {
				p.runShare(j, end)
				p.done.Done()
			}
		}()
	}
	return p
}

func (p *windowPool) runShare(j int, end Tick) {
	active := p.s.active
	for k := j; k < len(active); k += p.participants {
		p.s.runComponent(active[k], end)
	}
}

// run executes the scheduler's active set before end on the first m
// participants and returns once all of them have finished.
func (p *windowPool) run(end Tick, m int) {
	p.participants = m
	p.done.Add(m - 1)
	for j := 1; j < m; j++ {
		p.start[j] <- end
	}
	p.runShare(0, end)
	p.done.Wait()
}

func (p *windowPool) close() {
	for j := 1; j < p.size; j++ {
		close(p.start[j])
	}
	p.exited.Wait()
}
