package storage

import "sort"

// FindOptions refines a query: sort order, offset, limit, and field
// projection — the cursor modifiers gem5art's Jupyter analyses lean on.
type FindOptions struct {
	// SortBy orders results by this (possibly dotted) key.
	SortBy string
	// Descending reverses the sort order.
	Descending bool
	// Skip drops the first N matches.
	Skip int
	// Limit caps the number of returned documents (0 = no cap).
	Limit int
	// Fields, when non-empty, projects each document to these keys
	// (plus "_id").
	Fields []string
}

// ApplyFindOptions refines an already-materialized result set. Engines
// share it so sort/skip/limit/projection behave identically everywhere.
// The input slice is modified in place (sorting) and sliced.
func ApplyFindOptions(docs []Doc, opts FindOptions) []Doc {
	if opts.SortBy != "" {
		sort.SliceStable(docs, func(i, j int) bool {
			av, aok := Lookup(docs[i], opts.SortBy)
			bv, bok := Lookup(docs[j], opts.SortBy)
			if aok != bok {
				// Present values sort before missing ones.
				less := aok
				if opts.Descending {
					return !less
				}
				return less
			}
			cmp, ok := CompareValues(av, bv)
			if !ok {
				return false
			}
			if opts.Descending {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if opts.Skip > 0 {
		if opts.Skip >= len(docs) {
			return nil
		}
		docs = docs[opts.Skip:]
	}
	if opts.Limit > 0 && opts.Limit < len(docs) {
		docs = docs[:opts.Limit]
	}
	if len(opts.Fields) > 0 {
		projected := make([]Doc, len(docs))
		for i, d := range docs {
			p := Doc{}
			if id, ok := d["_id"]; ok {
				p["_id"] = id
			}
			for _, f := range opts.Fields {
				if v, ok := Lookup(d, f); ok {
					p[f] = v
				}
			}
			projected[i] = p
		}
		docs = projected
	}
	return docs
}

// Aggregate computes a numeric summary of one key across documents.
type Aggregate struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count (0 for empty).
func (a Aggregate) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}
