package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "operations")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	g := r.Gauge("test_depth", "queue depth")
	g.Set(4)
	g.Dec()

	out := render(t, r)
	for _, want := range []string{
		"# HELP test_ops_total operations\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 3\n",
		"# TYPE test_depth gauge\n",
		"test_depth 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabeledSeries(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_jobs_total", "jobs by result", "result")
	v.With("ok").Add(2)
	v.With("error").Inc()
	v.With("ok").Inc() // same child

	out := render(t, r)
	if !strings.Contains(out, `test_jobs_total{result="ok"} 3`) {
		t.Errorf("missing ok series:\n%s", out)
	}
	if !strings.Contains(out, `test_jobs_total{result="error"} 1`) {
		t.Errorf("missing error series:\n%s", out)
	}
	// One TYPE line for the family, not per child.
	if n := strings.Count(out, "# TYPE test_jobs_total"); n != 1 {
		t.Errorf("TYPE line count = %d, want 1", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("test_paths", "values with awkward characters", "path")
	v.With(`C:\dir"x"` + "\nend").Set(1)
	out := render(t, r)
	want := `test_paths{path="C:\\dir\"x\"\nend"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("escaped series %q missing in:\n%s", want, out)
	}
	// A literal newline inside the braces would corrupt the format.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "{") && !strings.Contains(line, "}") {
			t.Errorf("unterminated label set on line %q", line)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "line1\nline2 with \\ backslash")
	out := render(t, r)
	if !strings.Contains(out, `# HELP test_x_total line1\nline2 with \\ backslash`) {
		t.Errorf("help not escaped:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "op latency", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.7, 2.5} {
		h.Observe(v)
	}
	// Cumulative: le=0.1 -> 2 (0.05 and the boundary value 0.1),
	// le=0.5 -> 3, le=1 -> 4, +Inf -> 5.
	bounds, cum := h.Buckets()
	wantCum := []uint64{2, 3, 4}
	for i := range bounds {
		if cum[i] != wantCum[i] {
			t.Errorf("bucket le=%g cumulative = %d, want %d", bounds[i], cum[i], wantCum[i])
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.3+0.7+2.5; got != want {
		t.Errorf("Sum = %g, want %g", got, want)
	}

	out := render(t, r)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="0.5"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_db_seconds", "db latency", []float64{0.01}, "op")
	v.With("insert").Observe(0.005)
	v.With("find").Observe(0.5)
	out := render(t, r)
	for _, want := range []string{
		`test_db_seconds_bucket{op="insert",le="0.01"} 1`,
		`test_db_seconds_bucket{op="find",le="0.01"} 0`,
		`test_db_seconds_bucket{op="find",le="+Inf"} 1`,
		`test_db_seconds_count{op="insert"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_twice_total", "first")
	b := r.Counter("test_twice_total", "second help ignored")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %g, want 1", b.Value())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type did not panic")
		}
	}()
	r.Gauge("test_twice_total", "now a gauge")
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "a").Add(7)
	r.CounterVec("test_b_total", "b", "k").With("v").Inc()
	r.Histogram("test_h_seconds", "h", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["test_a_total"] != 7 {
		t.Errorf("snapshot a = %g", snap["test_a_total"])
	}
	if snap[`test_b_total{k="v"}`] != 1 {
		t.Errorf("snapshot b = %g", snap[`test_b_total{k="v"}`])
	}
	if snap["test_h_seconds_count"] != 1 || snap["test_h_seconds_sum"] != 0.5 {
		t.Errorf("snapshot histogram = %g/%g", snap["test_h_seconds_count"], snap["test_h_seconds_sum"])
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "concurrent adds")
	h := r.Histogram("test_conc_seconds", "concurrent observes", []float64{0.5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %g, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}
