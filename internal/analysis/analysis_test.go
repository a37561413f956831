package analysis

import (
	"strings"
	"testing"

	"gem5art/internal/database"
)

func seedRuns(t *testing.T) database.Store {
	t.Helper()
	db := database.MustOpen("")
	c := db.Collection("runs")
	rows := []database.Doc{
		{"name": "r1", "status": "done", "outcome": "success", "sim_seconds": 2.0,
			"insts": 100.0, "params": []any{"os=18.04", "benchmark=dedup", "num_cpus=1"}},
		{"name": "r2", "status": "done", "outcome": "success", "sim_seconds": 1.5,
			"insts": 110.0, "params": []any{"os=20.04", "benchmark=dedup", "num_cpus=1"}},
		{"name": "r3", "status": "done", "outcome": "success", "sim_seconds": 4.0,
			"insts": 200.0, "params": []any{"os=18.04", "benchmark=vips", "num_cpus=1"}},
		{"name": "r4", "status": "done", "outcome": "kernel-panic", "sim_seconds": 0.5,
			"insts": 10.0, "params": []any{"os=20.04", "benchmark=vips", "num_cpus=1"}},
	}
	if err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExtractRuns(t *testing.T) {
	db := seedRuns(t)
	rows := ExtractRuns(db, database.Doc{"status": "done"})
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Params["os"] != "18.04" || rows[0].SimSeconds != 2.0 {
		t.Fatalf("row 0: %+v", rows[0])
	}
	filtered := ExtractRuns(db, database.Doc{"outcome": "success"})
	if len(filtered) != 3 {
		t.Fatalf("filtered = %d", len(filtered))
	}
}

func TestGroupBy(t *testing.T) {
	db := seedRuns(t)
	rows := ExtractRuns(db, nil)
	series := GroupBy(rows, "os", "benchmark", func(r RunRow) float64 { return r.SimSeconds })
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	// Sorted by series name: 18.04 first.
	if series[0].Name != "18.04" || series[1].Name != "20.04" {
		t.Fatalf("series names: %s, %s", series[0].Name, series[1].Name)
	}
	if series[0].Value("dedup") != 2.0 || series[1].Value("dedup") != 1.5 {
		t.Fatalf("values: %v %v", series[0], series[1])
	}
	// Labels preserve first-seen order.
	if series[0].Labels[0] != "dedup" || series[0].Labels[1] != "vips" {
		t.Fatalf("labels: %v", series[0].Labels)
	}
	if series[0].Value("nonexistent") != 0 {
		t.Fatal("missing label should be 0")
	}
}

func TestGroupByAverages(t *testing.T) {
	rows := []RunRow{
		{Params: map[string]string{"s": "a", "l": "x"}, SimSeconds: 1},
		{Params: map[string]string{"s": "a", "l": "x"}, SimSeconds: 3},
	}
	series := GroupBy(rows, "s", "l", func(r RunRow) float64 { return r.SimSeconds })
	if series[0].Value("x") != 2 {
		t.Fatalf("mean = %v", series[0].Value("x"))
	}
}

func TestBarChart(t *testing.T) {
	series := []Series{
		{Name: "18.04", Labels: []string{"dedup", "vips"}, Values: []float64{2, 4}},
		{Name: "20.04", Labels: []string{"dedup", "vips"}, Values: []float64{1.5, -1}},
	}
	out := BarChart("Figure 6", series, 20)
	if !strings.Contains(out, "== Figure 6 ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "####################") {
		t.Fatal("max bar should reach full width")
	}
	if !strings.Contains(out, "<") {
		t.Fatal("negative value should render with '<'")
	}
	if strings.Count(out, "\n") != 5 {
		t.Fatalf("expected 5 lines, got:\n%s", out)
	}
}

func TestBarChartEmptySafe(t *testing.T) {
	out := BarChart("empty", nil, 0)
	if !strings.Contains(out, "empty") {
		t.Fatal("title lost")
	}
}

func TestMatrix(t *testing.T) {
	out := Matrix("Figure 8", []string{"kvm", "O3"}, []string{"1", "2"},
		func(r, c string) string {
			if r == "O3" && c == "2" {
				return "FAIL"
			}
			return "ok"
		})
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "kvm") {
		t.Fatalf("matrix:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean of 1,2,3")
	}
}
