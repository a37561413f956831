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
