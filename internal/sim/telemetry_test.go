package sim

import "testing"

func TestEventQueueCountsEvents(t *testing.T) {
	before := simEvents.Value()
	q := NewEventQueue()
	const n = telemetryBatch + 100 // cross a flush boundary
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			q.After(1, tick)
		}
	}
	q.After(1, tick)
	q.Run()
	if count != n {
		t.Fatalf("executed %d events, want %d", count, n)
	}
	if got := simEvents.Value() - before; got != float64(n) {
		t.Errorf("telemetry counted %g events, want %d", got, n)
	}
}

func TestRunUntilFlushesPartialBatch(t *testing.T) {
	before := simEvents.Value()
	q := NewEventQueue()
	for i := Tick(1); i <= 10; i++ {
		q.Schedule(i, func() {})
	}
	q.RunUntil(5)
	if got := simEvents.Value() - before; got != 5 {
		t.Errorf("telemetry counted %g events, want 5", got)
	}
}

// TestSchedulerCountersReachTelemetry checks a scheduler's
// counters (all windows inline on one worker) and that the process-wide
// event counter counts one per executed event, deliveries included.
func TestSchedulerCountersReachTelemetry(t *testing.T) {
	events := simEvents.Value()

	p := newPingPong()
	const rounds = 192
	p.s.RunUntil((rounds + 1) * p.round)
	c := p.s.Counters()
	if c.Windows == 0 || c.Messages == 0 || c.PoolWindows != 0 || c.InlineWindows != c.Windows {
		t.Fatalf("counters after ping-pong: %+v", c)
	}
	// One kick-off callback, then one delivery event per message except
	// the last, which is still in flight at the limit.
	if got := simEvents.Value() - events; got != float64(c.Messages) {
		t.Errorf("telemetry counted %g events for %d deliveries + 1 callback - 1 in flight", got, c.Messages)
	}
}
