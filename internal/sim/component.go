package sim

import "fmt"

// A Component is one independently schedulable unit of a simulated
// system: it owns a local event queue and a frequency domain, and it
// interacts with other components only through typed Ports with declared
// minimum link latencies. That containment is what makes conservative
// parallel execution safe — within one time window a component touches
// nothing but its own state, so the Scheduler may run components on
// different goroutines with no locks on the hot path.
//
// Components mirror Akita's component/port model (the kernel that drives
// mgpusim's independently ticking CU/cache/memory units), scaled to this
// repository's abstraction level.
type Component struct {
	name  string
	index int // registration order: the scheduler's delivery tie-break
	clock Clock
	eq    EventQueue
	sched *Scheduler
	ports []*Port
	stats *StatGroup

	// outbox stages messages sent during the current window. It is only
	// appended to by this component's own events (single goroutine) and
	// drained by the scheduler at the barrier.
	outbox []staged

	// windowEvents counts events executed since the last telemetry
	// flush; the scheduler flushes it in batches at window barriers so
	// the per-event cost stays a local increment.
	windowEvents uint64
}

// Msg is what ports carry: a small fixed-size record that travels by
// value from the sender's outbox through the receiver's event heap to its
// handler, so a message costs no allocation and no boxing. The kernel
// never looks inside; the two components a link connects agree on what
// Kind, Op, Tag, Src, A and B mean (see mem.BackReq.Msg for the memory
// protocol's encoding). Ref is the escape hatch for payloads too large
// or too rare to deserve words of their own, such as a GPU kernel
// launch; putting a non-pointer value there boxes it.
type Msg struct {
	Kind uint16 // message type within the link's protocol
	Op   uint8  // protocol-defined sub-operation
	Tag  uint8  // protocol-defined small state
	Src  int32  // protocol-defined origin (e.g. core index)
	A, B int64
	Ref  any
}

// staged is one port message awaiting barrier delivery.
type staged struct {
	port *Port // sending port
	when Tick  // absolute delivery tick at the receiver
	msg  Msg
}

// NewComponent creates a component registered with the scheduler.
func (s *Scheduler) NewComponent(name string, clock Clock) *Component {
	if s.running {
		panic("sim: NewComponent during Scheduler.Run")
	}
	c := &Component{
		name:  name,
		index: len(s.comps),
		clock: clock,
		sched: s,
		stats: NewStatGroup(),
	}
	s.comps = append(s.comps, c)
	return c
}

// Name returns the component's name.
func (c *Component) Name() string { return c.name }

// Clock returns the component's frequency domain.
func (c *Component) Clock() Clock { return c.clock }

// Stats returns the component's local statistics group. Only the
// component's own events may mutate it; the scheduler merges component
// groups at window barriers (see Scheduler.MergeStatsInto).
func (c *Component) Stats() *StatGroup { return c.stats }

// Now returns the component's local simulated time: the tick of the last
// event it executed (components within one window may observe slightly
// different local times, all inside the window).
func (c *Component) Now() Tick { return c.eq.Now() }

// Schedule runs fn at the given absolute tick on this component's local
// queue. Only the component's own events (or pre-Run setup code) may call
// it; cross-component interaction goes through ports.
func (c *Component) Schedule(when Tick, fn func()) { c.eq.Schedule(when, fn) }

// ScheduleP schedules with an explicit priority, like EventQueue.ScheduleP.
func (c *Component) ScheduleP(when Tick, prio int, fn func()) { c.eq.ScheduleP(when, prio, fn) }

// After schedules fn delay ticks after the component's local time.
func (c *Component) After(delay Tick, fn func()) { c.eq.After(delay, fn) }

// Pending returns the number of locally scheduled events.
func (c *Component) Pending() int { return c.eq.Pending() }

// NewPort declares a port on the component with the given minimum link
// latency: every message sent through the port arrives at least latency
// ticks after the sender's local time. The smallest latency over all
// connected ports bounds the scheduler's conservative window.
func (c *Component) NewPort(name string, latency Tick) *Port {
	if latency == 0 {
		panic(fmt.Sprintf("sim: port %s.%s declares zero link latency", c.name, name))
	}
	p := &Port{owner: c, name: name, latency: latency}
	c.ports = append(c.ports, p)
	return p
}

// A Port is a typed link endpoint. Connect two ports, install a handler
// on each side, and Send delivers messages across the link after its
// declared latency. Messages sent during a window are staged locally and
// scheduled onto the receiver at the window barrier, which is what keeps
// parallel execution deterministic: delivery order depends only on
// (delivery tick, component registration order, send order), never on
// goroutine interleaving.
type Port struct {
	owner   *Component
	name    string
	latency Tick
	peer    *Port
	handler func(when Tick, msg Msg)
}

// Connect links two ports bidirectionally. Both ends keep their own
// declared latency (asymmetric links are legal).
func Connect(a, b *Port) {
	if a.peer != nil || b.peer != nil {
		panic(fmt.Sprintf("sim: port %s or %s already connected", a, b))
	}
	if a.owner == b.owner {
		panic(fmt.Sprintf("sim: port %s connects a component to itself", a))
	}
	if a.owner.sched != b.owner.sched {
		panic(fmt.Sprintf("sim: ports %s and %s belong to different schedulers", a, b))
	}
	a.peer, b.peer = b, a
}

// OnReceive installs the port's delivery handler, invoked on the owning
// component's local queue at the message's delivery tick. The handler is
// bound once; each delivery is an event record naming the port, not a
// fresh closure.
func (p *Port) OnReceive(fn func(when Tick, msg Msg)) { p.handler = fn }

// Owner returns the component the port belongs to.
func (p *Port) Owner() *Component { return p.owner }

// String renders "component.port".
func (p *Port) String() string { return p.owner.name + "." + p.name }

// Send stages msg for delivery to the connected peer at the sender's
// local time plus the link latency.
func (p *Port) Send(msg Msg) { p.SendAfter(0, msg) }

// SendAfter stages msg for delivery at now + latency + extra. The extra
// delay models service time beyond the wire latency (e.g. a memory
// controller replying after its access completes) without shrinking the
// conservative window below the declared link latency.
func (p *Port) SendAfter(extra Tick, msg Msg) {
	if p.peer == nil {
		panic(fmt.Sprintf("sim: send on unconnected port %s", p))
	}
	c := p.owner
	c.outbox = append(c.outbox, staged{
		port: p,
		when: c.eq.Now() + p.latency + extra,
		msg:  msg,
	})
}
