package database

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gem5art/internal/database/storage"
)

// TestIndexAnswersEqualScanAnswers drives seeded random mutation
// sequences against a journaled collection with one unique and two
// plain indexes (one two-key) and, after every step, compares Find,
// FindOne and Count with a plain storage.Matches scan of a model that
// knows nothing about indexes. UpdateOne's choice of document is
// checked by applying the same update to the model's first scan match.
func TestIndexAnswersEqualScanAnswers(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { indexProperty(t, seed, 120) })
	}
}

// propModel is the reference: documents in insertion order, queried
// only by scanning with storage.Matches.
type propModel struct{ docs []Doc }

func (m *propModel) scan(filter Doc) []Doc {
	var out []Doc
	for _, d := range m.docs {
		if storage.Matches(d, filter) {
			out = append(out, d)
		}
	}
	return out
}

// uidTaken is the unique index's rule by scan: equal values collide,
// and so do two documents that both lack the key.
func (m *propModel) uidTaken(d Doc, except Doc) bool {
	v, ok := d["uid"]
	for _, o := range m.docs {
		ov, ook := o["uid"]
		if fmt.Sprint(o["_id"]) == fmt.Sprint(except["_id"]) {
			continue
		}
		if ok == ook && (!ok || storage.ValuesEqual(v, ov)) {
			return true
		}
	}
	return false
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func indexProperty(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	open := func() (Store, Collection) {
		db, err := OpenWith(dir, Options{Journal: true})
		if err != nil {
			t.Fatal(err)
		}
		c := db.Collection("p")
		c.CreateUniqueIndex("uid")
		c.CreateIndex("grp")
		c.CreateIndex("grp", "kind")
		return db, c
	}
	db, c := open()
	defer func() { db.Close() }()
	m := &propModel{}
	next := 0

	// Values are drawn from small pools so keys collide; grp mixes int
	// and float64 spellings of the same numbers, and some documents
	// lack grp or kind altogether.
	grp := func() any {
		if n := rng.Intn(4); rng.Intn(2) == 0 {
			return n
		} else {
			return float64(n)
		}
	}
	kind := func() any { return []any{"a", "b", "c", nil}[rng.Intn(4)] }
	newDoc := func() Doc {
		next++
		d := Doc{"_id": fmt.Sprintf("d%d", next), "uid": fmt.Sprintf("u%d", next), "n": rng.Intn(10)}
		if rng.Intn(8) > 0 {
			d["grp"] = grp()
		}
		if rng.Intn(8) > 0 {
			d["kind"] = kind()
		}
		if len(m.docs) > 0 && rng.Intn(10) == 0 {
			d["uid"] = m.docs[rng.Intn(len(m.docs))]["uid"] // provoke a duplicate
		}
		return d
	}
	filters := func() []Doc {
		g, k := grp(), kind()
		fs := []Doc{
			{"grp": g},            // plain index
			{"grp": g, "kind": k}, // two-key index (and grp alone)
			{"kind": k},           // half of the two-key index: scan
			{"uid": fmt.Sprintf("u%d", rng.Intn(next+1))}, // unique index
			{"grp": g, "n": Doc{"$gte": rng.Intn(10)}},    // operator on a non-index key
			{"grp": Doc{"$in": []any{g, 9}}},              // operator on an index key: scan
			{"grp": Doc{"$exists": false}},                // documents missing the key
			{"grp": g, "absent": 1},                       // a key no document has
			{"uid": fmt.Sprintf("u%d", rng.Intn(next+1)), "grp": g},
		}
		return fs
	}
	check := func(step int, what string) {
		t.Helper()
		if got, want := c.Count(nil), len(m.docs); got != want {
			t.Fatalf("step %d (%s): Count(nil) = %d, model has %d", step, what, got, want)
		}
		for _, f := range filters() {
			want := m.scan(f)
			if got := c.Find(f); asJSON(t, got) != asJSON(t, want) {
				t.Fatalf("step %d (%s): Find(%v)\n got %s\nwant %s", step, what, f, asJSON(t, got), asJSON(t, want))
			}
			if got := c.Count(f); got != len(want) {
				t.Fatalf("step %d (%s): Count(%v) = %d, scan says %d", step, what, f, got, len(want))
			}
			var first Doc
			if len(want) > 0 {
				first = want[0]
			}
			if got := c.FindOne(f); asJSON(t, got) != asJSON(t, first) {
				t.Fatalf("step %d (%s): FindOne(%v)\n got %s\nwant %s", step, what, f, asJSON(t, got), asJSON(t, first))
			}
		}
	}
	wantDup := func(step int, what string, err error, dup bool) {
		t.Helper()
		var d *ErrDuplicate
		if errors.As(err, &d) != dup || (err != nil && !dup) {
			t.Fatalf("step %d (%s): err = %v, model expects duplicate = %v", step, what, err, dup)
		}
	}

	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(20); {
		case op < 6:
			what = "InsertOne"
			d := newDoc()
			dup := m.uidTaken(d, nil)
			_, err := c.InsertOne(d)
			wantDup(step, what, err, dup)
			if !dup {
				m.docs = append(m.docs, d)
			}
		case op < 9:
			what = "InsertMany"
			batch := make([]Doc, 1+rng.Intn(5))
			for i := range batch {
				batch[i] = newDoc()
			}
			if len(batch) > 1 && rng.Intn(4) == 0 {
				batch[len(batch)-1]["uid"] = batch[0]["uid"] // duplicate inside the batch
			}
			dup := false
			staged := &propModel{docs: append([]Doc(nil), m.docs...)}
			for _, d := range batch {
				dup = dup || staged.uidTaken(d, nil)
				staged.docs = append(staged.docs, d)
			}
			wantDup(step, what, c.InsertMany(batch), dup)
			if !dup {
				m.docs = staged.docs
			}
		case op < 15:
			what = "UpdateOne"
			f := filters()[rng.Intn(5)]
			set := []Doc{
				{"grp": grp()}, {"kind": kind()}, {"grp": grp(), "kind": kind()}, {"n": rng.Intn(10)},
				{"uid": fmt.Sprintf("u%d", rng.Intn(next+1))},
			}[rng.Intn(5)]
			matches := m.scan(f)
			ok, err := c.UpdateOne(f, set)
			if len(matches) == 0 {
				if ok || err != nil {
					t.Fatalf("step %d: UpdateOne(%v) = %v, %v with no scan match", step, f, ok, err)
				}
				break
			}
			target := matches[0]
			merged := Doc{}
			for k, v := range target {
				merged[k] = v
			}
			for k, v := range set {
				merged[k] = v
			}
			dup := m.uidTaken(merged, target)
			wantDup(step, what, err, dup)
			if !dup {
				if !ok {
					t.Fatalf("step %d: UpdateOne(%v) missed scan match %v", step, f, target)
				}
				for k, v := range set {
					target[k] = v // the model holds the same map
				}
			}
		case op < 17:
			what = "DeleteMany"
			f := filters()[rng.Intn(4)]
			gone := m.scan(f)
			if got := c.DeleteMany(f); got != len(gone) {
				t.Fatalf("step %d: DeleteMany(%v) = %d, scan says %d", step, f, got, len(gone))
			}
			kept := m.docs[:0:0]
			for _, d := range m.docs {
				if !storage.Matches(d, f) {
					kept = append(kept, d)
				}
			}
			m.docs = kept
		case op < 19:
			what = "reopen"
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, c = open()
		default:
			what = "compact"
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		check(step, what)
	}
}
