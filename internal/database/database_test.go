package database

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestInsertAssignsID(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("artifacts")
	id, err := c.InsertOne(Doc{"name": "gem5"})
	if err != nil {
		t.Fatalf("InsertOne: %v", err)
	}
	if id == "" {
		t.Fatal("expected a generated _id")
	}
	got := c.FindOne(Doc{"_id": id})
	if got == nil || got["name"] != "gem5" {
		t.Fatalf("FindOne by id returned %v", got)
	}
}

func TestInsertPreservesCallerDoc(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("a")
	d := Doc{"k": "v"}
	if _, err := c.InsertOne(d); err != nil {
		t.Fatal(err)
	}
	if _, ok := d["_id"]; ok {
		t.Fatal("InsertOne mutated the caller's document")
	}
	d["k"] = "changed"
	if got := c.FindOne(Doc{"k": "v"}); got == nil {
		t.Fatal("stored document was corrupted by caller mutation")
	}
}

// TestStoreCopiesNestedValues: InsertOne and UpdateOne store deep
// copies, so a caller that mutates a nested map it passed in, or one it
// got back from FindOne, leaves the stored document as it was.
func TestStoreCopiesNestedValues(t *testing.T) {
	c := MustOpen("").Collection("a")
	d := Doc{"_id": "x", "stats": map[string]any{"ipc": 1.5}}
	if _, err := c.InsertOne(d); err != nil {
		t.Fatal(err)
	}
	d["stats"].(map[string]any)["ipc"] = 2.0
	if got := c.FindOne(Doc{"_id": "x"})["stats"].(map[string]any)["ipc"]; got != 1.5 {
		t.Fatalf("after mutating the inserted doc: ipc = %v, want 1.5", got)
	}

	set := Doc{"stats": map[string]any{"ipc": 3.0}}
	if ok, err := c.UpdateOne(Doc{"_id": "x"}, set); err != nil || !ok {
		t.Fatalf("UpdateOne = %v, %v", ok, err)
	}
	set["stats"].(map[string]any)["ipc"] = 4.0
	got := c.FindOne(Doc{"_id": "x"})
	if ipc := got["stats"].(map[string]any)["ipc"]; ipc != 3.0 {
		t.Fatalf("after mutating the update's set: ipc = %v, want 3", ipc)
	}

	got["stats"].(map[string]any)["ipc"] = 5.0
	if ipc := c.FindOne(Doc{"_id": "x"})["stats"].(map[string]any)["ipc"]; ipc != 3.0 {
		t.Fatalf("after mutating a found doc: ipc = %v, want 3", ipc)
	}
}

func TestFindEquality(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("runs")
	for i := 0; i < 5; i++ {
		if _, err := c.InsertOne(Doc{"cpu": "timing", "cores": i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.InsertOne(Doc{"cpu": "o3", "cores": 2}); err != nil {
		t.Fatal(err)
	}
	got := c.Find(Doc{"cpu": "timing"})
	if len(got) != 5 {
		t.Fatalf("Find(cpu=timing) = %d docs, want 5", len(got))
	}
	if n := c.Count(Doc{"cores": 2}); n != 2 {
		t.Fatalf("Count(cores=2) = %d, want 2", n)
	}
}

func TestFindOperators(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("runs")
	for i := 1; i <= 8; i *= 2 {
		if _, err := c.InsertOne(Doc{"cores": i, "status": "done"}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		filter Doc
		want   int
	}{
		{"gt", Doc{"cores": Doc{"$gt": 2}}, 2},
		{"gte", Doc{"cores": Doc{"$gte": 2}}, 3},
		{"lt", Doc{"cores": Doc{"$lt": 8}}, 3},
		{"lte", Doc{"cores": Doc{"$lte": 1}}, 1},
		{"ne", Doc{"cores": Doc{"$ne": 4}}, 3},
		{"in", Doc{"cores": Doc{"$in": []any{1, 8}}}, 2},
		{"exists", Doc{"status": Doc{"$exists": true}}, 4},
		{"notexists", Doc{"missing": Doc{"$exists": false}}, 4},
		{"contains", Doc{"status": Doc{"$contains": "on"}}, 4},
		{"combined", Doc{"cores": Doc{"$gt": 1, "$lt": 8}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := c.Count(tc.filter); n != tc.want {
				t.Errorf("Count(%v) = %d, want %d", tc.filter, n, tc.want)
			}
		})
	}
}

func TestDottedKeys(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("artifacts")
	if _, err := c.InsertOne(Doc{
		"name": "gem5",
		"git":  map[string]any{"url": "https://example.org/gem5", "hash": "440f0bc"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.FindOne(Doc{"git.hash": "440f0bc"}); got == nil {
		t.Fatal("dotted-key equality did not match nested document")
	}
	if got := c.FindOne(Doc{"git.hash": "deadbeef"}); got != nil {
		t.Fatal("dotted-key equality matched the wrong value")
	}
}

func TestUniqueIndexRejectsDuplicates(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("artifacts")
	c.CreateUniqueIndex("hash", "name")
	if _, err := c.InsertOne(Doc{"hash": "abc", "name": "gem5"}); err != nil {
		t.Fatal(err)
	}
	_, err := c.InsertOne(Doc{"hash": "abc", "name": "gem5"})
	var dup *ErrDuplicate
	if err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if !asErr(err, &dup) {
		t.Fatalf("error = %v, want *ErrDuplicate", err)
	}
	// Different hash, same name is fine: a changed file is a new artifact.
	if _, err := c.InsertOne(Doc{"hash": "def", "name": "gem5"}); err != nil {
		t.Fatalf("distinct hash rejected: %v", err)
	}
}

func asErr(err error, target **ErrDuplicate) bool {
	d, ok := err.(*ErrDuplicate)
	if ok {
		*target = d
	}
	return ok
}

func TestUpdateOne(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("runs")
	id, err := c.InsertOne(Doc{"status": "queued"})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.UpdateOne(Doc{"_id": id}, Doc{"status": "running", "host": "sim0"}); err != nil || !ok {
		t.Fatalf("UpdateOne found nothing (ok=%v err=%v)", ok, err)
	}
	got := c.FindOne(Doc{"_id": id})
	if got["status"] != "running" || got["host"] != "sim0" {
		t.Fatalf("after update: %v", got)
	}
	if ok, err := c.UpdateOne(Doc{"_id": "nope"}, Doc{"status": "x"}); err != nil || ok {
		t.Fatalf("UpdateOne matched a nonexistent doc (ok=%v err=%v)", ok, err)
	}
}

func TestDeleteMany(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("runs")
	for i := 0; i < 6; i++ {
		if _, err := c.InsertOne(Doc{"even": i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.DeleteMany(Doc{"even": true}); n != 3 {
		t.Fatalf("DeleteMany removed %d, want 3", n)
	}
	if n := c.Count(nil); n != 3 {
		t.Fatalf("remaining = %d, want 3", n)
	}
}

func TestDistinct(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("runs")
	for _, cpu := range []string{"kvm", "timing", "kvm", "o3", "timing"} {
		if _, err := c.InsertOne(Doc{"cpu": cpu}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Distinct("cpu", nil)
	if len(got) != 3 {
		t.Fatalf("Distinct = %v, want 3 values", got)
	}
	if got[0] != "kvm" || got[1] != "timing" || got[2] != "o3" {
		t.Fatalf("Distinct order = %v, want first-seen order", got)
	}
}

func TestNumericCrossTypeEquality(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("x")
	if _, err := c.InsertOne(Doc{"n": 8}); err != nil {
		t.Fatal(err)
	}
	// After a JSON round-trip the stored 8 becomes float64(8); both int and
	// float filters must keep matching.
	if c.FindOne(Doc{"n": float64(8)}) == nil {
		t.Fatal("int-stored value did not match float filter")
	}
	if c.FindOne(Doc{"n": int64(8)}) == nil {
		t.Fatal("int-stored value did not match int64 filter")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	db := MustOpen("")
	fs := db.Files()
	data := bytes.Repeat([]byte("vmlinux-5.4.51 "), 40000) // ~600 KB, >2 chunks
	hash, _ := fs.Put("vmlinux", data)
	if !fs.Exists(hash) {
		t.Fatal("stored file not found by hash")
	}
	meta, ok := fs.Stat(hash)
	if !ok || meta.Length != len(data) {
		t.Fatalf("Stat = %+v ok=%v", meta, ok)
	}
	if meta.Chunks < 3 {
		t.Fatalf("expected >=3 chunks for %d bytes, got %d", len(data), meta.Chunks)
	}
	got, err := fs.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-tripped content differs")
	}
}

func TestFileStoreDeduplicates(t *testing.T) {
	db := MustOpen("")
	fs := db.Files()
	h1, _ := fs.Put("a", []byte("same-content"))
	h2, _ := fs.Put("b", []byte("same-content"))
	if h1 != h2 {
		t.Fatalf("same content hashed differently: %s vs %s", h1, h2)
	}
	if n := len(fs.List()); n != 1 {
		t.Fatalf("store holds %d files, want 1 (dedup)", n)
	}
	if fs.TotalBytes() != len("same-content") {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
	}
}

func TestFileStoreGetMissing(t *testing.T) {
	db := MustOpen("")
	if _, err := db.Files().Get("no-such-hash"); err == nil {
		t.Fatal("Get of missing hash succeeded")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("artifacts")
	if _, err := c.InsertOne(Doc{"name": "gem5", "hash": "abc", "cores": 8}); err != nil {
		t.Fatal(err)
	}
	blob := []byte("disk image bytes")
	h, _ := db.Files().Put("parsec.img", blob)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := db2.Collection("artifacts").FindOne(Doc{"name": "gem5"})
	if got == nil {
		t.Fatal("document lost across reopen")
	}
	if got["cores"] != float64(8) {
		t.Fatalf("cores round-tripped as %v (%T)", got["cores"], got["cores"])
	}
	data, err := db2.Files().Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, blob) {
		t.Fatal("file content lost across reopen")
	}
}

func TestPersistencePreservesUniqueConstraintData(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir)
	c := db.Collection("a")
	c.CreateUniqueIndex("hash")
	if _, err := c.InsertOne(Doc{"hash": "h1"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db2 := MustOpen(dir)
	c2 := db2.Collection("a")
	c2.CreateUniqueIndex("hash")
	if _, err := c2.InsertOne(Doc{"hash": "h1"}); err == nil {
		t.Fatal("duplicate allowed after reload")
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	db := MustOpen("")
	c := db.Collection("runs")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.InsertOne(Doc{"g": g, "i": i}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				c.Find(Doc{"g": g})
			}
		}(g)
	}
	wg.Wait()
	if n := c.Count(nil); n != 400 {
		t.Fatalf("count = %d, want 400", n)
	}
}

func TestCollectionNamesSorted(t *testing.T) {
	db := MustOpen("")
	for _, n := range []string{"zeta", "alpha", "mid"} {
		db.Collection(n)
	}
	got := db.CollectionNames()
	want := []string{"alpha", "mid", "zeta"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("CollectionNames = %v, want %v", got, want)
	}
}
