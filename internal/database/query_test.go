package database

import "testing"

func seeded(t *testing.T) Collection {
	t.Helper()
	db := MustOpen("")
	c := db.Collection("runs")
	rows := []Doc{
		{"app": "dedup", "seconds": 3.0, "cpu": map[string]any{"model": "timing"}},
		{"app": "vips", "seconds": 1.0, "cpu": map[string]any{"model": "o3"}},
		{"app": "ferret", "seconds": 2.0, "cpu": map[string]any{"model": "timing"}},
		{"app": "noval"},
	}
	if err := c.InsertMany(rows); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAggregateKey(t *testing.T) {
	c := seeded(t)
	agg := c.AggregateKey(nil, "seconds")
	if agg.Count != 3 || agg.Sum != 6 || agg.Min != 1 || agg.Max != 3 {
		t.Fatalf("aggregate: %+v", agg)
	}
	if agg.Mean() != 2 {
		t.Fatalf("mean = %v", agg.Mean())
	}
	empty := c.AggregateKey(Doc{"app": "nothere"}, "seconds")
	if empty.Count != 0 || empty.Mean() != 0 {
		t.Fatalf("empty aggregate: %+v", empty)
	}
}
