package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestPortDelivery checks the basic port contract: a message sent at
// local time t arrives at exactly t + latency, on the receiver's queue.
func TestPortDelivery(t *testing.T) {
	s := NewScheduler(1)
	a := s.NewComponent("a", NewClock(1_000_000_000))
	b := s.NewComponent("b", NewClock(1_000_000_000))
	pa := a.NewPort("out", 500)
	pb := b.NewPort("in", 500)
	Connect(pa, pb)

	var got []Tick
	pb.OnReceive(func(when Tick, msg Msg) {
		if when != b.Now() {
			t.Errorf("handler when %d != local now %d", when, b.Now())
		}
		got = append(got, when)
	})
	pa.OnReceive(func(Tick, Msg) {})

	a.Schedule(100, func() { pa.Send(Msg{A: 1}) })
	a.Schedule(1000, func() { pa.SendAfter(250, Msg{A: 2}) })
	s.Run()

	want := []Tick{600, 1750}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	if s.Lookahead() != 500 {
		t.Fatalf("lookahead %d, want 500 (min port latency)", s.Lookahead())
	}
}

// TestSchedulerAdvanceTo checks the two clock semantics: RunUntil stays
// at the last executed window, AdvanceTo consumes the idle gap to limit.
func TestSchedulerAdvanceTo(t *testing.T) {
	s := NewScheduler(1)
	c := s.NewComponent("c", NewClock(1_000_000_000))
	ran := false
	c.Schedule(42, func() { ran = true })
	got := s.RunUntil(10_000)
	if !ran {
		t.Fatal("event at 42 did not run")
	}
	if got > 10_000 || s.Now() != got {
		t.Fatalf("RunUntil: returned %d, Now()=%d", got, s.Now())
	}
	if s.AdvanceTo(10_000) != 10_000 || s.Now() != 10_000 {
		t.Fatalf("AdvanceTo: Now()=%d, want limit 10000", s.Now())
	}
	// Resuming past the limit still works.
	ran2 := false
	c.Schedule(20_000, func() { ran2 = true })
	s.AdvanceTo(30_000)
	if !ran2 || s.Now() != 30_000 {
		t.Fatalf("resume: ran2=%v now=%d", ran2, s.Now())
	}
}

// TestSchedulerStop checks that Stop from inside an event ends the run at
// the next barrier, with the full window still executed.
func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(2)
	a := s.NewComponent("a", NewClock(1_000_000_000))
	b := s.NewComponent("b", NewClock(1_000_000_000))
	pa := a.NewPort("out", 1000)
	pb := b.NewPort("in", 1000)
	Connect(pa, pb)
	pa.OnReceive(func(Tick, Msg) {})
	pb.OnReceive(func(Tick, Msg) {})

	var after bool
	a.Schedule(100, func() { s.Stop() })
	b.Schedule(500, func() { after = true }) // same window as the Stop
	b.Schedule(5_000, func() { t.Error("event after stop window ran") })
	s.Run()
	if !after {
		t.Fatal("event in the stopping window was skipped — windows must complete")
	}
	if b.Pending() != 1 {
		t.Fatalf("pending after stop = %d, want 1", b.Pending())
	}
}

func TestZeroLatencyPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPort with zero latency did not panic")
		}
	}()
	s := NewScheduler(1)
	c := s.NewComponent("c", NewClock(1_000_000_000))
	c.NewPort("bad", 0)
}

func TestUnconnectedSendPanics(t *testing.T) {
	s := NewScheduler(1)
	c := s.NewComponent("c", NewClock(1_000_000_000))
	p := c.NewPort("dangling", 100)
	defer func() {
		if recover() == nil {
			t.Fatal("Send on unconnected port did not panic")
		}
	}()
	p.Send(Msg{})
}

func TestConnectValidation(t *testing.T) {
	s := NewScheduler(1)
	a := s.NewComponent("a", NewClock(1_000_000_000))
	b := s.NewComponent("b", NewClock(1_000_000_000))
	pa, pb := a.NewPort("p", 10), b.NewPort("p", 10)
	Connect(pa, pb)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double connect did not panic")
			}
		}()
		Connect(pa, b.NewPort("q", 10))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self connect did not panic")
			}
		}()
		Connect(a.NewPort("x", 10), a.NewPort("y", 10))
	}()
}

// chatterLog records one component's observable history: every event it
// executes and every message it receives, with local timestamps. Two runs
// are equivalent iff all components' logs match.
type chatterLog struct {
	entries []string
}

func (l *chatterLog) add(format string, args ...any) {
	l.entries = append(l.entries, fmt.Sprintf(format, args...))
}

// buildChatterRing wires n components in a ring with varied latencies and
// seeded per-component RNG behavior: each event does some local work,
// probabilistically messages its ring neighbor, and reschedules itself.
// Returns the per-component logs.
func buildChatterRing(s *Scheduler, n int, seed int64, horizon Tick) []*chatterLog {
	logs := make([]*chatterLog, n)
	comps := make([]*Component, n)
	outs := make([]*Port, n)
	for i := 0; i < n; i++ {
		logs[i] = &chatterLog{}
		comps[i] = s.NewComponent(fmt.Sprintf("node%d", i), NewClock(1_000_000_000))
		// Varied latencies; min 700 bounds the window.
		outs[i] = comps[i].NewPort("out", Tick(700+137*i))
	}
	for i := 0; i < n; i++ {
		in := comps[(i+1)%n].NewPort(fmt.Sprintf("in%d", i), 900)
		Connect(outs[i], in)
		j := (i + 1) % n
		logi := logs[j]
		in.OnReceive(func(when Tick, msg Msg) {
			logi.add("recv@%d m%d.%d", when, msg.Src, msg.A)
		})
	}
	for i := 0; i < n; i++ {
		i := i
		rng := rand.New(rand.NewSource(seed + int64(i)))
		count := 0
		var tick func()
		tick = func() {
			c := comps[i]
			count++
			logs[i].add("tick@%d #%d", c.Now(), count)
			if rng.Intn(3) == 0 {
				outs[i].SendAfter(Tick(rng.Intn(200)), Msg{Src: int32(i), A: int64(count)})
			}
			next := c.Now() + Tick(100+rng.Intn(400))
			if next < horizon {
				c.Schedule(next, tick)
			}
		}
		comps[i].Schedule(Tick(50+i*13), tick)
	}
	return logs
}

// TestSchedulerDeterminism is the kernel-level determinism contract: the
// same seeded component graph produces identical per-component event and
// message histories regardless of worker count. The end-to-end version
// over O3+Ruby lives in the cpu package's golden-stats test.
func TestSchedulerDeterminism(t *testing.T) {
	const n, seed, horizon = 7, 12345, Tick(300_000)
	run := func(workers int) [][]string {
		s := NewScheduler(workers)
		logs := buildChatterRing(s, n, seed, horizon)
		s.Run()
		out := make([][]string, n)
		for i, l := range logs {
			out[i] = l.entries
		}
		return out
	}
	ref := run(1)
	total := 0
	for _, l := range ref {
		total += len(l)
	}
	if total < 1000 {
		t.Fatalf("chatter ring only produced %d log entries; test too weak", total)
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range ref {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: component %d history diverged from sequential\nseq: %v\npar: %v",
					workers, i, tail(ref[i]), tail(got[i]))
			}
		}
	}
}

// TestSchedulerDeterminismOnPool is TestSchedulerDeterminism with the
// windows actually executing on pool goroutines. The chatter ring's
// windows are far too cheap for the cost gate to split, so the test pins
// the gate open: a huge inline estimate, a free pool, and no probe to
// correct either.
func TestSchedulerDeterminismOnPool(t *testing.T) {
	needProcs(t, 8)
	const n, seed, horizon = 7, 12345, Tick(300_000)
	run := func(workers int) ([][]string, Counters) {
		s := NewScheduler(workers)
		defer s.Close()
		s.inlinePer, s.poolPer, s.untilProbe = [2]time.Duration{time.Second, time.Second}, 0, math.MaxInt
		logs := buildChatterRing(s, n, seed, horizon)
		s.Run()
		out := make([][]string, n)
		for i, l := range logs {
			out[i] = l.entries
		}
		return out, s.Counters()
	}
	ref, refCount := run(1)
	if refCount.PoolWindows != 0 {
		t.Fatalf("one worker used the pool: %+v", refCount)
	}
	for _, workers := range []int{2, 4, 8} {
		got, count := run(workers)
		if count.PoolWindows < count.Windows/4 {
			t.Errorf("workers=%d: only %d of %d windows ran on the pool; the pinned gate should send every multi-component window there",
				workers, count.PoolWindows, count.Windows)
		}
		if count.Windows != refCount.Windows || count.Messages != refCount.Messages {
			t.Errorf("workers=%d: %+v, one worker %+v", workers, count, refCount)
		}
		for i := range ref {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("workers=%d: component %d history diverged from sequential\nseq: %v\npar: %v",
					workers, i, tail(ref[i]), tail(got[i]))
			}
		}
	}
}

func tail(s []string) []string {
	if len(s) > 5 {
		return s[len(s)-5:]
	}
	return s
}

// TestSchedulerNoLinks checks that a link-free graph still executes (the
// maxWindow fallback) and that independent components interleave.
func TestSchedulerNoLinks(t *testing.T) {
	s := NewScheduler(4)
	s.SetMaxWindow(1_000)
	var counts [3]int
	for i := 0; i < 3; i++ {
		i := i
		c := s.NewComponent(fmt.Sprintf("free%d", i), NewClock(1_000_000_000))
		var tick func()
		tick = func() {
			counts[i]++
			if counts[i] < 100 {
				c.After(100, tick)
			}
		}
		c.Schedule(0, tick)
	}
	s.Run()
	for i, n := range counts {
		if n != 100 {
			t.Fatalf("component %d ran %d events, want 100", i, n)
		}
	}
	if w := s.Counters().Windows; w < 5 {
		t.Fatalf("expected multiple windows under SetMaxWindow(1000), got %d", w)
	}
}

func TestMergeGroups(t *testing.T) {
	mk := func() *StatGroup {
		g := NewStatGroup()
		g.Scalar("insts", "instructions")
		g.Vector("perCore", "per-core", 4)
		g.Histogram("lat", "latency", 0, 10, 4)
		return g
	}
	a, b := mk(), mk()
	a.Lookup("insts").(*Scalar).Add(5)
	b.Lookup("insts").(*Scalar).Add(7)
	a.Lookup("perCore").(*Vector).Add(0, 2)
	b.Lookup("perCore").(*Vector).Add(3, 4)
	a.Lookup("lat").(*Histogram).Sample(15)
	b.Lookup("lat").(*Histogram).Sample(35)

	dst := mk()
	dst.Formula("ipc", "derived", func() float64 {
		return dst.Lookup("insts").Value() / 2
	})
	MergeGroups(dst, a, b)
	if got := dst.Lookup("insts").Value(); got != 12 {
		t.Fatalf("merged scalar %v, want 12", got)
	}
	if got := dst.Lookup("perCore").(*Vector).At(3); got != 4 {
		t.Fatalf("merged vector[3] %v, want 4", got)
	}
	if got := dst.Lookup("lat").(*Histogram).Samples(); got != 2 {
		t.Fatalf("merged histogram samples %v, want 2", got)
	}
	if got := dst.Lookup("ipc").Value(); got != 6 {
		t.Fatalf("formula over merged stats %v, want 6", got)
	}

	// Merging again after more accumulation refreshes, not double-counts.
	a.Lookup("insts").(*Scalar).Add(1)
	MergeGroups(dst, a, b)
	if got := dst.Lookup("insts").Value(); got != 13 {
		t.Fatalf("re-merged scalar %v, want 13 (refresh semantics)", got)
	}
}

// TestSchedulerBarrierHook checks the stats-merge hook fires during and
// at the end of a run.
func TestSchedulerBarrierHook(t *testing.T) {
	s := NewScheduler(2)
	s.SetMaxWindow(100)
	c := s.NewComponent("c", NewClock(1_000_000_000))
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 10_000 {
			c.After(50, tick)
		}
	}
	c.Schedule(0, tick)
	calls := 0
	s.OnBarrier(func() { calls++ })
	s.Run()
	if calls < 2 {
		t.Fatalf("barrier hook fired %d times, want periodic + final", calls)
	}
}
