package run

import (
	"strings"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/sim"
)

// stallComp registers a component that schedules itself forever
// without ever letting the scheduler finish — and wedges hard (blocks
// the worker goroutine) on command, so the window counter stops
// advancing.
func stallComp(s *sim.Scheduler, wedge <-chan struct{}) *sim.Component {
	c := s.NewComponent("stall", sim.NewClock(1_000_000_000))
	step := sim.Tick(100)
	var tick func()
	tick = func() {
		select {
		case <-wedge:
			<-make(chan struct{}) // wedged for good
		default:
		}
		c.Schedule(c.Now()+step, tick)
	}
	c.Schedule(step, tick)
	return c
}

// TestWatchdogCancelsStalledSim: a simulation that stops completing
// windows is canceled within the stall deadline and reported as a
// retryable StallError.
func TestWatchdogCancelsStalledSim(t *testing.T) {
	wedge := make(chan struct{})
	s := sim.NewScheduler(1)
	stallComp(s, wedge)
	s.SetMaxWindow(1000)

	base := runStalls.Value()
	close(wedge) // wedge on the very first event
	stop := watchSim("run-wd", s, 50*time.Millisecond)
	// The wedged event blocks RunUntil forever — Stop() only takes
	// effect at the next barrier, which never comes. The goroutine is
	// intentionally leaked; the watchdog's job is to report the wedge so
	// the worker can fail the job, not to unstick the host goroutine.
	go s.RunUntil(1 << 40)

	// Observe the stall through the metric, not stop(): the first stop()
	// call shuts the watchdog down, so polling it would be a self-DoS.
	deadline := time.After(5 * time.Second)
	for runStalls.Value() == base {
		select {
		case <-deadline:
			t.Fatal("watchdog never canceled the stalled simulation")
		case <-time.After(5 * time.Millisecond):
		}
	}
	serr := stop()
	if serr == nil {
		t.Fatal("watchdog fired but stop() returned nil")
	}
	if !serr.Transient() {
		t.Fatal("stall not marked transient")
	}
	if !strings.Contains(serr.Error(), "transient") {
		t.Fatalf("stall message lacks the wire retry marker: %q", serr.Error())
	}
	if !(tasks.RetryPolicy{}).RetryableMessage(serr.Error()) {
		t.Fatalf("stall error not retryable over the wire: %q", serr.Error())
	}
}

// TestWatchdogQuietOnProgress: a healthy simulation that keeps
// completing windows is never canceled.
func TestWatchdogQuietOnProgress(t *testing.T) {
	wedge := make(chan struct{})
	s := sim.NewScheduler(1)
	stallComp(s, wedge)
	s.SetMaxWindow(1000)

	stop := watchSim("run-ok", s, 250*time.Millisecond)
	go func() {
		time.Sleep(100 * time.Millisecond)
		s.Stop() // end the run normally while windows are advancing
	}()
	s.RunUntil(1 << 40)
	if serr := stop(); serr != nil {
		t.Fatalf("watchdog canceled a progressing simulation: %v", serr)
	}
}

// TestWatchdogQuietOnSlowWindows: coarse windows (KVM batches, GPU
// kernels) take milliseconds of host time each, so a handful of them
// outlast a short stall deadline. Every completed window must count as
// progress on its own, not only every batch of them.
func TestWatchdogQuietOnSlowWindows(t *testing.T) {
	const windows, perWindow, deadline = 40, 5 * time.Millisecond, 60 * time.Millisecond
	s := sim.NewScheduler(1)
	c := s.NewComponent("slow", sim.NewClock(1_000_000_000))
	s.SetMaxWindow(1000)
	done := 0
	var tick func()
	tick = func() {
		time.Sleep(perWindow)
		if done++; done < windows {
			c.After(1000, tick)
		}
	}
	c.Schedule(0, tick)

	stop := watchSim("run-slow", s, deadline)
	s.Run()
	if serr := stop(); serr != nil {
		t.Fatalf("watchdog canceled a simulation completing a window every %v: %v", perWindow, serr)
	}
	if done != windows {
		t.Fatalf("run ended after %d of %d windows", done, windows)
	}
}

// TestWatchdogDisabled: deadline 0 is a no-op supervisor.
func TestWatchdogDisabled(t *testing.T) {
	stop := watchSim("run-off", nil, 0)
	if serr := stop(); serr != nil {
		t.Fatalf("disabled watchdog produced %v", serr)
	}
}
