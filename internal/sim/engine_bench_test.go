package sim

import "testing"

// The kernel's hot path as a fixture that a benchmark times and an
// AllocsPerRun test pins at zero allocations in steady state.

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

func BenchmarkEventQueueChain(b *testing.B) {
	c := newEventChain()
	b.ReportAllocs()
	b.ResetTimer()
	c.q.RunUntil(Tick(b.N))
}

func TestEventQueueChainAllocatesNothing(t *testing.T) {
	c := newEventChain()
	c.q.RunUntil(100)
	const events = 1000
	if got := testing.AllocsPerRun(20, func() { c.q.RunUntil(c.q.Now() + events) }); got != 0 {
		t.Fatalf("%v allocations per %d chained events, want 0", got, events)
	}
}
