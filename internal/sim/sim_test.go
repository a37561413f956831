package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	q := NewEventQueue()
	var order []int
	q.Schedule(30, func() { order = append(order, 3) })
	q.Schedule(10, func() { order = append(order, 1) })
	q.Schedule(20, func() { order = append(order, 2) })
	end := q.Run()
	if end != 30 {
		t.Fatalf("final tick = %d, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
}

func TestEventFIFOAtSameTick(t *testing.T) {
	q := NewEventQueue()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func() { order = append(order, i) })
	}
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events ran out of insertion order: %v", order)
		}
	}

	// Same-tick events interleaved with earlier ones, through enough
	// events that the heap sifts both ways: insertion order survives.
	q = NewEventQueue()
	order = order[:0]
	var want []int
	for i := 0; i < 30; i++ {
		i := i
		when := Tick(7)
		if i%3 == 0 {
			when = Tick(30 - i)
		} else {
			want = append(want, i)
		}
		q.Schedule(when, func() {
			if q.Now() == 7 {
				order = append(order, i)
			}
		})
	}
	q.Run()
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("same-tick order among mixed ticks = %v, want %v", order, want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := NewEventQueue()
	q.Schedule(100, func() {})
	q.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	q.Schedule(50, func() {})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	q := NewEventQueue()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			q.After(10, tick)
		}
	}
	q.Schedule(0, tick)
	end := q.Run()
	if count != 5 {
		t.Fatalf("self-rescheduling event ran %d times", count)
	}
	if end != 40 {
		t.Fatalf("final tick = %d, want 40", end)
	}
}

func TestRunUntil(t *testing.T) {
	q := NewEventQueue()
	var ticks []Tick
	for _, w := range []Tick{10, 20, 30} {
		w := w
		q.Schedule(w, func() { ticks = append(ticks, w) })
	}
	q.RunUntil(25)
	if len(ticks) != 2 {
		t.Fatalf("RunUntil(25) executed %v", ticks)
	}
	// Time stays at the last executed event, not the limit.
	if q.Now() != 20 {
		t.Fatalf("RunUntil(25): Now()=%d, want 20", q.Now())
	}
	// The remaining event is still pending and a new Run executes it.
	q.Run()
	if len(ticks) != 3 || q.Now() != 30 {
		t.Fatalf("resumed run executed %v, now %d", ticks, q.Now())
	}
}

func TestRandomOrderProperty(t *testing.T) {
	// Property: whatever order events are scheduled in, they execute in
	// (tick, insertion) order — the reference is a stable sort of the
	// schedule calls. Half the events are scheduled from inside running
	// events, so pushes interleave with pops.
	type key struct {
		when Tick
		id   int
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewEventQueue()
		var got, want []key
		count := int(n%64) + 1
		var add func(k key, spawn int)
		add = func(k key, spawn int) {
			want = append(want, k)
			q.Schedule(k.when, func() {
				got = append(got, k)
				for j := 0; j < spawn; j++ {
					// Strictly later, so the reference order stays a plain
					// stable sort of all schedule calls.
					add(key{q.Now() + 1 + Tick(rng.Intn(50)), len(want)}, 0)
				}
			})
		}
		for i := 0; i < count; i++ {
			add(key{Tick(rng.Intn(1000)), len(want)}, rng.Intn(2))
		}
		q.Run()
		sort.SliceStable(want, func(i, j int) bool { return want[i].when < want[j].when })
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClock(t *testing.T) {
	c := NewClock(1_000_000_000) // 1 GHz
	if c.Period != 1000 {
		t.Fatalf("1 GHz period = %d ticks, want 1000", c.Period)
	}
	if c.Cycles(5) != 5000 {
		t.Fatalf("5 cycles = %d ticks", c.Cycles(5))
	}
	if Tick(2_000_000_000_000).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
}

func TestScalarAndFormula(t *testing.T) {
	g := NewStatGroup()
	insts := g.Scalar("sim_insts", "instructions simulated")
	cycles := g.Scalar("sim_cycles", "cycles simulated")
	ipc := g.Formula("ipc", "instructions per cycle", func() float64 {
		if cycles.Value() == 0 {
			return 0
		}
		return insts.Value() / cycles.Value()
	})
	insts.Add(300)
	cycles.Add(100)
	if ipc.Value() != 3 {
		t.Fatalf("ipc = %v", ipc.Value())
	}
	insts.Inc()
	if insts.Value() != 301 {
		t.Fatalf("Inc: %v", insts.Value())
	}
}

func TestVector(t *testing.T) {
	g := NewStatGroup()
	v := g.Vector("committedInsts", "per-core instructions", 4)
	v.Add(0, 10)
	v.Add(3, 5)
	if v.At(0) != 10 || v.At(3) != 5 || v.Value() != 15 || v.Len() != 4 {
		t.Fatalf("vector state wrong: %v total %v", v, v.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("latency", "miss latency", 0, 10, 5)
	for _, s := range []float64{1, 11, 12, 49, 1000} {
		h.Sample(s)
	}
	if h.Samples() != 5 {
		t.Fatalf("samples = %v", h.Samples())
	}
	wantMean := (1.0 + 11 + 12 + 49 + 1000) / 5
	if h.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	lines := strings.Join(h.Render(), "\n")
	if !strings.Contains(lines, "latency::samples") {
		t.Fatal("render missing samples line")
	}
}

func TestDuplicateStatPanics(t *testing.T) {
	g := NewStatGroup()
	g.Scalar("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate stat registration did not panic")
		}
	}()
	g.Scalar("x", "")
}

func TestDumpFormatAndValues(t *testing.T) {
	g := NewStatGroup()
	g.Scalar("b_stat", "second").Set(2)
	g.Scalar("a_stat", "first").Set(1)
	out := g.Dump()
	if !strings.HasPrefix(out, "---------- Begin Simulation Statistics ----------") {
		t.Fatal("missing begin marker")
	}
	if strings.Index(out, "a_stat") > strings.Index(out, "b_stat") {
		t.Fatal("dump not sorted by stat name")
	}
	vals := g.Values()
	if vals["a_stat"] != 1 || vals["b_stat"] != 2 {
		t.Fatalf("Values = %v", vals)
	}
	if g.Lookup("a_stat") == nil || g.Lookup("zzz") != nil {
		t.Fatal("Lookup misbehaved")
	}
}

func TestConfigTree(t *testing.T) {
	root := NewConfig("system", "System")
	root.Set("mem_mode", "timing")
	cpu := root.Child("cpu0", "TimingSimpleCPU")
	cpu.Set("cores", 1)
	cache := cpu.Child("dcache", "Cache")
	cache.Set("size", "16kB")

	if root.Find("cpu0.dcache") != cache {
		t.Fatal("Find failed on nested path")
	}
	if root.Find("nope") != nil {
		t.Fatal("Find invented a node")
	}
	if root.CountNodes() != 3 {
		t.Fatalf("CountNodes = %d", root.CountNodes())
	}
	out := root.Render()
	for _, want := range []string{"[system]", "[system.cpu0]", "[system.cpu0.dcache]",
		"type=TimingSimpleCPU", "size=16kB", "mem_mode=timing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestClockRounding(t *testing.T) {
	// 3 GHz does not divide 1 THz: ideal period 333.33 ticks. Round to
	// nearest (333), not truncate — and the residual drift over 1e9
	// cycles must match the documented bound (~333 µs fast, <0.2%).
	c := NewClock(3_000_000_000)
	if c.Period != 333 {
		t.Fatalf("3 GHz period = %d ticks, want 333", c.Period)
	}
	const cycles = 1_000_000_000
	got := float64(c.Cycles(cycles))
	ideal := float64(TicksPerSecond) / 3e9 * cycles
	drift := ideal - got // positive: the modeled clock runs fast
	if drift < 0 {
		t.Fatalf("3 GHz clock runs slow by %g ticks; rounding should err fast here", -drift)
	}
	if rel := drift / ideal; rel > 0.002 {
		t.Fatalf("3 GHz relative drift %g over 1e9 cycles, want ≤ 0.2%%", rel)
	}
	if drift > 334e6 {
		t.Fatalf("3 GHz drift %g ticks over 1e9 cycles, want ~333 µs (≤ 334e6)", drift)
	}

	// 2.4 GHz rounds up (416.67 → 417): truncation would have kept the
	// old silent run-fast bias.
	if p := NewClock(2_400_000_000).Period; p != 417 {
		t.Fatalf("2.4 GHz period = %d ticks, want 417 (round to nearest)", p)
	}
	// Above 1 THz the period clamps to one tick.
	if p := NewClock(3_000_000_000_000).Period; p != 1 {
		t.Fatalf("3 THz period = %d ticks, want clamp to 1", p)
	}
}
