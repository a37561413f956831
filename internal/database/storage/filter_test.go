package storage

import "testing"

func lookupDoc() Doc {
	return Doc{
		"a":   1.0,
		"":    "empty",
		"n":   map[string]any{"b": map[string]any{"c": "deep"}, "": 2.0},
		"s":   "leaf",
		"nil": nil,
	}
}

func TestLookup(t *testing.T) {
	d := lookupDoc()
	cases := []struct {
		key  string
		want any
		ok   bool
	}{
		{"a", 1.0, true},
		{"", "empty", true},
		{"nil", nil, true},
		{"n.b.c", "deep", true},
		{"n.", 2.0, true},
		{"missing", nil, false},
		{"n.b.missing", nil, false},
		{"s.x", nil, false}, // a leaf has no fields
		{"a.b.c", nil, false},
		{".a", nil, false},
		{"n.b.c.d", nil, false},
	}
	for _, c := range cases {
		got, ok := Lookup(d, c.key)
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%q) = %v, %v; want %v, %v", c.key, got, ok, c.want, c.ok)
		}
	}
}

// TestLookupAllocatesNothing pins Lookup at zero allocations for keys
// present and absent, dotted and undotted.
func TestLookupAllocatesNothing(t *testing.T) {
	d := lookupDoc()
	for _, key := range []string{"a", "missing", "n.b.c", "n.b.missing", "s.x"} {
		if n := testing.AllocsPerRun(100, func() { Lookup(d, key) }); n != 0 {
			t.Errorf("Lookup(%q): %.0f allocs, want 0", key, n)
		}
	}
}
