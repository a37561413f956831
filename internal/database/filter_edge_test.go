package database

import (
	"testing"

	"gem5art/internal/database/storage"
)

// Edge cases of Matches: nested (dotted) field traversal, missing
// fields, type mismatches, and malformed operator arguments — the
// inputs a status daemon forwarding raw query parameters can produce.

func runDoc() Doc {
	return Doc{
		"_id":    "r1",
		"name":   "boot-vmlinux-5.4.49",
		"status": "done",
		"insts":  float64(123456),
		"artifacts": map[string]any{
			"gem5": "a-gem5",
			"disk": "a-disk",
			"meta": map[string]any{"rev": float64(3)},
		},
		"params": []any{"cores=4", "mem=MESI"},
	}
}

func TestMatchesNestedFields(t *testing.T) {
	d := runDoc()
	cases := []struct {
		name   string
		filter Doc
		want   bool
	}{
		{"one level", Doc{"artifacts.gem5": "a-gem5"}, true},
		{"one level wrong value", Doc{"artifacts.gem5": "other"}, false},
		{"two levels", Doc{"artifacts.meta.rev": float64(3)}, true},
		{"two levels int vs float64", Doc{"artifacts.meta.rev": 3}, true},
		{"missing leaf", Doc{"artifacts.kernel": "x"}, false},
		{"missing branch", Doc{"results.outcome": "success"}, false},
		{"dotted path through non-map", Doc{"name.sub": "x"}, false},
		{"dotted path through list", Doc{"params.0": "cores=4"}, false},
		{"exact nested doc equality", Doc{"artifacts": map[string]any{
			"gem5": "a-gem5", "disk": "a-disk",
			"meta": map[string]any{"rev": float64(3)},
		}}, true},
		{"nested doc equality missing key", Doc{"artifacts": map[string]any{
			"gem5": "a-gem5",
		}}, false},
	}
	for _, c := range cases {
		if got := storage.Matches(d, c.filter); got != c.want {
			t.Errorf("%s: storage.Matches(%v) = %v, want %v", c.name, c.filter, got, c.want)
		}
	}
}

func TestMatchesMissingFields(t *testing.T) {
	d := runDoc()
	cases := []struct {
		name   string
		filter Doc
		want   bool
	}{
		{"equality on missing field", Doc{"outcome": "success"}, false},
		{"equality on missing field vs nil", Doc{"outcome": nil}, false},
		{"$exists true on present", Doc{"status": Doc{"$exists": true}}, true},
		{"$exists false on present", Doc{"status": Doc{"$exists": false}}, false},
		{"$exists true on missing", Doc{"outcome": Doc{"$exists": true}}, false},
		{"$exists false on missing", Doc{"outcome": Doc{"$exists": false}}, true},
		{"$exists false on missing nested", Doc{"artifacts.kernel": Doc{"$exists": false}}, true},
		// $ne is vacuously true on a missing field (nothing to differ from).
		{"$ne on missing field", Doc{"outcome": Doc{"$ne": "success"}}, true},
		// Ordered comparisons require the field to be present.
		{"$gt on missing field", Doc{"outcome": Doc{"$gt": 1}}, false},
		{"$in on missing field", Doc{"outcome": Doc{"$in": []any{"success"}}}, false},
		{"$contains on missing field", Doc{"outcome": Doc{"$contains": "succ"}}, false},
	}
	for _, c := range cases {
		if got := storage.Matches(d, c.filter); got != c.want {
			t.Errorf("%s: storage.Matches(%v) = %v, want %v", c.name, c.filter, got, c.want)
		}
	}
}

func TestMatchesTypeMismatches(t *testing.T) {
	d := runDoc()
	cases := []struct {
		name   string
		filter Doc
		want   bool
	}{
		{"string field vs number", Doc{"status": 1}, false},
		{"number field vs string", Doc{"insts": "123456"}, false},
		{"number field vs bool", Doc{"insts": true}, false},
		// All numeric Go types are mutually comparable.
		{"float64 field vs int", Doc{"insts": 123456}, true},
		{"float64 field vs int64", Doc{"insts": int64(123456)}, true},
		{"float64 field vs uint32", Doc{"insts": uint32(123456)}, true},
		// Ordered comparison across types is no-match, not a panic.
		{"$gt string arg on number field", Doc{"insts": Doc{"$gt": "100"}}, false},
		{"$gt number arg on string field", Doc{"status": Doc{"$gt": 1}}, false},
		{"$lt bool arg", Doc{"insts": Doc{"$lt": true}}, false},
		{"$gt on string field compares lexically", Doc{"status": Doc{"$gt": "aaa"}}, true},
		{"$contains on non-string field", Doc{"insts": Doc{"$contains": "123"}}, false},
		{"$contains non-string arg", Doc{"status": Doc{"$contains": 1}}, false},
		{"list field vs scalar", Doc{"params": "cores=4"}, false},
	}
	for _, c := range cases {
		if got := storage.Matches(d, c.filter); got != c.want {
			t.Errorf("%s: storage.Matches(%v) = %v, want %v", c.name, c.filter, got, c.want)
		}
	}
}

func TestMatchesMalformedOperators(t *testing.T) {
	d := runDoc()
	cases := []struct {
		name   string
		filter Doc
		want   bool
	}{
		{"$in with non-list arg", Doc{"status": Doc{"$in": "done"}}, false},
		{"$in with empty list", Doc{"status": Doc{"$in": []any{}}}, false},
		{"$in with mixed types", Doc{"insts": Doc{"$in": []any{"x", 123456}}}, true},
		{"unknown operator", Doc{"status": Doc{"$regex": "do.*"}}, false},
		// A document value whose keys are not all operators is an exact match.
		{"mixed op and plain keys", Doc{"status": map[string]any{"$ne": "x", "k": 1}}, false},
		{"empty operator doc is equality", Doc{"status": map[string]any{}}, false},
		{"$exists non-bool arg means false", Doc{"outcome": Doc{"$exists": "yes"}}, true},
	}
	for _, c := range cases {
		if got := storage.Matches(d, c.filter); got != c.want {
			t.Errorf("%s: storage.Matches(%v) = %v, want %v", c.name, c.filter, got, c.want)
		}
	}
}

// TestFindWithEdgeFilters drives the same edge cases through a real
// collection, confirming the query layer inherits filter semantics.
func TestFindWithEdgeFilters(t *testing.T) {
	db := MustOpen(t.TempDir())
	defer db.Close()
	col := db.Collection("runs")
	if _, err := col.InsertOne(runDoc()); err != nil {
		t.Fatal(err)
	}
	if _, err := col.InsertOne(Doc{"_id": "r2", "name": "boot-2", "status": "failed"}); err != nil {
		t.Fatal(err)
	}

	if n := len(col.Find(Doc{"artifacts.gem5": "a-gem5"})); n != 1 {
		t.Errorf("nested filter matched %d docs, want 1", n)
	}
	if n := len(col.Find(Doc{"insts": Doc{"$exists": false}})); n != 1 {
		t.Errorf("$exists:false matched %d docs, want 1", n)
	}
	if n := len(col.Find(Doc{"insts": Doc{"$gt": "not-a-number"}})); n != 0 {
		t.Errorf("type-mismatched $gt matched %d docs, want 0", n)
	}
	if n := col.Count(Doc{"status": Doc{"$in": []any{"done", "failed"}}}); n != 2 {
		t.Errorf("$in matched %d docs, want 2", n)
	}
}
