package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The kernel's three hot paths, each as a fixture that a benchmark times
// and an AllocsPerRun test pins at zero allocations in steady state.

// eventChain is the self-rescheduling pattern every CPU model's core-step
// loop reduces to: one closure, bound once, that reschedules itself.
type eventChain struct {
	q    *EventQueue
	step func()
}

func newEventChain() *eventChain {
	c := &eventChain{q: NewEventQueue()}
	c.step = func() { c.q.After(1, c.step) }
	c.q.After(1, c.step)
	return c
}

// pingPong is two components bouncing one message over a link: every
// window holds one delivery event and stages one message.
type pingPong struct {
	s     *Scheduler
	round Tick // simulated time per message
}

func newPingPong() *pingPong {
	const lat = 1000
	s := NewScheduler(1)
	a := s.NewComponent("a", NewClock(1_000_000_000))
	b := s.NewComponent("b", NewClock(1_000_000_000))
	pa, pb := a.NewPort("p", lat), b.NewPort("p", lat)
	Connect(pa, pb)
	pa.OnReceive(func(_ Tick, m Msg) { m.A++; pa.Send(m) })
	pb.OnReceive(func(_ Tick, m Msg) { m.A++; pb.Send(m) })
	a.Schedule(0, func() { pa.Send(Msg{Kind: 1}) })
	return &pingPong{s: s, round: lat}
}

// oneOfNine is the window shape that dominates a CPU/memory system: nine
// linked components of which one has work. The active one reschedules
// itself once per window; the other eight hold a far-future event each.
type oneOfNine struct {
	s      *Scheduler
	window Tick
}

func newOneOfNine() *oneOfNine {
	const lat = 1000
	s := NewScheduler(1)
	hub := s.NewComponent("hub", NewClock(1_000_000_000))
	for i := 0; i < 8; i++ {
		c := s.NewComponent(fmt.Sprintf("idle%d", i), NewClock(1_000_000_000))
		hp, cp := hub.NewPort(fmt.Sprintf("p%d", i), lat), c.NewPort("hub", lat)
		Connect(hp, cp)
		hp.OnReceive(func(Tick, Msg) {})
		cp.OnReceive(func(Tick, Msg) {})
		c.Schedule(noEvent-2, func() {})
	}
	var tick func()
	tick = func() { hub.After(lat, tick) }
	hub.Schedule(0, tick)
	return &oneOfNine{s: s, window: lat}
}

func BenchmarkEventQueueChain(b *testing.B) {
	c := newEventChain()
	b.ReportAllocs()
	b.ResetTimer()
	c.q.RunUntil(Tick(b.N))
}

func BenchmarkPortPingPong(b *testing.B) {
	p := newPingPong()
	p.s.RunUntil(100 * p.round) // grow the heaps and outboxes
	b.ReportAllocs()
	b.ResetTimer()
	p.s.RunUntil(p.s.Now() + Tick(b.N)*p.round)
}

func BenchmarkWindowOneActiveOfNine(b *testing.B) {
	o := newOneOfNine()
	o.s.RunUntil(100 * o.window)
	b.ReportAllocs()
	b.ResetTimer()
	o.s.RunUntil(o.s.Now() + Tick(b.N)*o.window)
}

func TestEventQueueChainAllocatesNothing(t *testing.T) {
	c := newEventChain()
	c.q.RunUntil(100)
	const events = 1000
	if got := testing.AllocsPerRun(20, func() { c.q.RunUntil(c.q.Now() + events) }); got != 0 {
		t.Fatalf("%v allocations per %d chained events, want 0", got, events)
	}
}

func TestPortPingPongAllocatesNothing(t *testing.T) {
	p := newPingPong()
	p.s.RunUntil(100 * p.round)
	const msgs = 1000
	before := p.s.Counters().Messages
	got := testing.AllocsPerRun(20, func() { p.s.RunUntil(p.s.Now() + msgs*p.round) })
	if got != 0 {
		t.Fatalf("%v allocations per %d port messages, want 0", got, msgs)
	}
	if sent := p.s.Counters().Messages - before; sent < 20*msgs {
		t.Fatalf("only %d messages delivered; the fixture is not exchanging traffic", sent)
	}
}

// needProcs raises GOMAXPROCS to n for the test: the scheduler never
// splits a window over more goroutines than can run at once, so on a
// one-CPU host a pool test would otherwise have no pool to enter.
func needProcs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// buildBurnRing wires n components in a ring; every event spins for a
// fixed stretch of host time and then messages the ring neighbour:
// windows expensive enough for the cost gate to split.
func buildBurnRing(s *Scheduler, n int, burn time.Duration, events int) []*[]string {
	logs := make([]*[]string, n)
	comps := make([]*Component, n)
	outs := make([]*Port, n)
	for i := range comps {
		logs[i] = new([]string)
		comps[i] = s.NewComponent(fmt.Sprintf("burn%d", i), NewClock(1_000_000_000))
		outs[i] = comps[i].NewPort("out", 1000)
	}
	for i := range comps {
		j := (i + 1) % n
		in := comps[j].NewPort("in", 1000)
		Connect(outs[i], in)
		log := logs[j]
		in.OnReceive(func(when Tick, m Msg) {
			*log = append(*log, fmt.Sprintf("recv@%d %d.%d", when, m.Src, m.A))
		})
		outs[i].OnReceive(func(Tick, Msg) {})
	}
	for i := range comps {
		i, c, count := i, comps[i], 0
		var tick func()
		tick = func() {
			for t0 := time.Now(); time.Since(t0) < burn; {
			}
			count++
			*logs[i] = append(*logs[i], fmt.Sprintf("tick@%d #%d", c.Now(), count))
			outs[i].Send(Msg{Src: int32(i), A: int64(count)})
			if count < events {
				c.After(1000, tick)
			}
		}
		c.Schedule(0, tick)
	}
	return logs
}

// TestGateEntersPoolOnHeavyWindows checks the other side of the cost
// gate: when every window holds several components that each burn tens
// of microseconds, windows do go to the pool, and the histories match
// the one-worker run exactly.
func TestGateEntersPoolOnHeavyWindows(t *testing.T) {
	needProcs(t, 4)
	const n, burn, events = 4, 50 * time.Microsecond, 150
	run := func(workers int) ([][]string, Counters) {
		s := NewScheduler(workers)
		defer s.Close()
		logs := buildBurnRing(s, n, burn, events)
		s.Run()
		out := make([][]string, n)
		for i, l := range logs {
			out[i] = *l
		}
		return out, s.Counters()
	}
	ref, refCount := run(1)
	if refCount.PoolWindows != 0 || refCount.InlineWindows != refCount.Windows {
		t.Fatalf("one worker used the pool: %+v", refCount)
	}
	for _, workers := range []int{2, 4} {
		got, count := run(workers)
		if count.PoolWindows == 0 {
			t.Errorf("workers=%d: no window entered the pool (%+v); the gate never opened on %v-per-component windows",
				workers, count, burn)
		}
		if count.Windows != refCount.Windows || count.Messages != refCount.Messages {
			t.Errorf("workers=%d: %+v, one worker %+v: window and message totals must not depend on workers",
				workers, count, refCount)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d: histories diverged from the one-worker run", workers)
		}
	}
}
