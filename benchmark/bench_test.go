package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	vs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 2.5}, {90, 3.7}, {100, 4}, {-5, 1}, {200, 4},
	} {
		if got := percentile(vs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", vs, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if !reflect.DeepEqual(vs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile sorted its argument in place: %v", vs)
	}
}

// The expected quartiles are what Python prints for
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5}, // extrapolates past the sample, as Python does
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(tc.vs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func at(msec int) time.Time { return time.Unix(1000, 0).Add(time.Duration(msec) * time.Millisecond) }

func TestUnionLength(t *testing.T) {
	ivs := []interval{{at(20), at(50)}, {at(10), at(30)}, {at(90), at(100)}, {at(40), at(45)}}
	if got := unionLength(ivs); got != 50*time.Millisecond {
		t.Errorf("unionLength = %v, want 50ms", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("unionLength(nil) = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: at(0), End: at(100)}
	children := []span{
		{Start: at(10), End: at(30)},
		{Start: at(20), End: at(50)},   // overlaps the first: counted once
		{Start: at(90), End: at(120)},  // runs past the parent: clipped
		{Start: at(200), End: at(210)}, // outside: ignored
	}
	if got := selfTime(parent, children); got != 50*time.Millisecond {
		t.Errorf("selfTime = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 100ms", got)
	}
}

func TestRollUp(t *testing.T) {
	spans := []span{
		{Name: "client.op", Op: 0, Parent: -1, Start: at(0), End: at(100)},
		{Name: "gateway.submit", Op: 0, Parent: 0, Start: at(0), End: at(40)},
		{Name: "gateway.status", Op: 0, Parent: 0, Start: at(50), End: at(60)},
		{Name: "gateway.status", Op: 0, Parent: 0, Start: at(70), End: at(80)},
	}
	got := rollUp(spans)
	want := []layerTime{
		{"client.op", 1, 100, 40},
		{"gateway.status", 2, 20, 20},
		{"gateway.submit", 1, 40, 40},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rollUp = %+v, want %+v", got, want)
	}
}

func TestIdleFrac(t *testing.T) {
	// Two launches of 100ms each with a gap between them; capacity 2.
	launches := []interval{{at(0), at(100)}, {at(150), at(250)}}
	// 120ms of handler time in total, two handlers overlapping.
	handlers := []interval{{at(0), at(50)}, {at(10), at(50)}, {at(150), at(180)}}
	if got, want := idleFrac(handlers, launches, 2), 1-120.0/400.0; !near(got, want) {
		t.Errorf("idleFrac = %v, want %v", got, want)
	}
	if got := idleFrac(nil, nil, 2); got != 0 {
		t.Errorf("idleFrac without launches = %v, want 0", got)
	}
}

func TestCounterDelta(t *testing.T) {
	before := map[string]float64{
		`gem5art_db_op_duration_seconds{op="find"}_sum`:   1.0,
		`gem5art_db_op_duration_seconds{op="find"}_count`: 10,
		`gem5art_db_full_scans_total`:                     5,
	}
	after := map[string]float64{
		`gem5art_db_op_duration_seconds{op="find"}_sum`:     1.5,
		`gem5art_db_op_duration_seconds{op="find"}_count`:   14,
		`gem5art_db_op_duration_seconds{op="insert"}_sum`:   0.25, // child created in between
		`gem5art_db_op_duration_seconds{op="insert"}_count`: 3,
		`gem5art_db_full_scans_total`:                       9,
		`gem5art_db_full_scans_total_other`:                 100, // a different family
	}
	if got := counterDelta(before, after, "gem5art_db_op_duration_seconds", "_sum"); !near(got, 0.75) {
		t.Errorf("sum delta = %v, want 0.75", got)
	}
	if got := counterDelta(before, after, "gem5art_db_op_duration_seconds", "_count"); !near(got, 7) {
		t.Errorf("count delta = %v, want 7", got)
	}
	if got := counterDelta(before, after, "gem5art_db_full_scans_total", ""); !near(got, 4) {
		t.Errorf("plain counter delta = %v, want 4", got)
	}
}

func TestGrown(t *testing.T) {
	before := map[string]int64{"a.wal": 100, "b.wal": 500}
	after := map[string]int64{"a.wal": 180, "b.wal": 40, "c.wal": 7} // b was compacted
	if got := grown(before, after); got != 87 {
		t.Errorf("grown = %d, want 87", got)
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	a, b, other := &config{seed: 7}, &config{seed: 7}, &config{seed: 8}
	la, lb, lo := newExpLaunches(a), newExpLaunches(b), newExpLaunches(other)
	la.cfg, lb.cfg, lo.cfg = nil, nil, nil
	if !reflect.DeepEqual(la, lb) {
		t.Error("the same seed generated different exp inputs")
	}
	if reflect.DeepEqual(la.cells, lo.cells) {
		t.Error("different seeds generated the same cell order")
	}
	if la.tags[0] != "tag=7-0" || lo.tags[0] != "tag=8-0" {
		t.Errorf("hack-back tags %q, %q do not carry the seed", la.tags[0], lo.tags[0])
	}
	// A seed permutes the cells; it never changes which cells there are.
	key := func(l *expLaunches) []string {
		var out []string
		for _, s := range l.cells {
			out = append(out, s.String())
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(key(la), key(lo)) {
		t.Error("different seeds generated different cell sets")
	}
	// Purposes are independent streams of one seed.
	if reflect.DeepEqual(permuted(a, "x", []int{1, 2, 3, 4, 5, 6, 7, 8}), permuted(a, "y", []int{1, 2, 3, 4, 5, 6, 7, 8})) {
		t.Error("two purposes of one seed gave the same permutation")
	}
}

func TestStatsDigestIgnoresOrderAndRepeats(t *testing.T) {
	p, q := newPass(false), newPass(false)
	p.stat("a", "success", 10, 100)
	p.stat("b", "kernel-panic", 5, 50)
	q.stat("b", "kernel-panic", 5, 50)
	q.stat("a", "success", 10, 100)
	q.stat("a", "success", 10, 100)
	if p.statsDigest() != q.statsDigest() {
		t.Error("digest depends on order or repetition")
	}
	q.stat("a", "success", 11, 100)
	if p.statsDigest() == q.statsDigest() {
		t.Error("digest missed a changed instruction count")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "runs_per_s", better: "higher", bound: 0.10}
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m, m, m * 1.01} }
	for _, tc := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, tight(100), tight(105), "within"},
		{lower, tight(100), tight(120), "worse"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(80), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, []float64{60, 80, 100, 120, 140}, tight(130), "unresolved"},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// BENCHMARK.json and the program's tables are two copies of one
// contract; the driver reads the first and the program emits the
// second.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloadTable))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadTable[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloadTable[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, w)
			}
			if bounded && (m.Bound == nil || *m.Bound != w.bound) {
				t.Errorf("%s %s: bound differs", kind, m.Name)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)

	// What the program emits for an untraced run is exactly the
	// end-to-end table.
	p := newPass(false)
	p.runs, p.insts, p.wall, p.cpu = 10, 1000, time.Second, time.Second
	p.lat = []time.Duration{time.Millisecond}
	emitted := endToEndValues(p, []float64{1})
	if len(emitted) != len(endToEnd) {
		t.Errorf("program emits %d end-to-end metrics, table has %d", len(emitted), len(endToEnd))
	}
	for _, m := range endToEnd {
		if _, ok := emitted[m.name]; !ok {
			t.Errorf("program does not emit %s", m.name)
		}
	}
}
