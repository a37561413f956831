package database

import (
	"errors"
	"fmt"
	"testing"

	"gem5art/internal/database/storage"
	"gem5art/internal/faultinject"
)

// batchOf returns n run-shaped documents b000, b001, ...
func batchOf(n int) []Doc {
	ds := make([]Doc, n)
	for i := range ds {
		ds[i] = Doc{"_id": fmt.Sprintf("b%03d", i), "job_id": fmt.Sprintf("j%03d", i), "status": "queued"}
	}
	return ds
}

// TestInsertManyFaultedCommitInsertsNothing injects each failing disk
// fault into the one write (or the one fsync) of a 100-document batch
// that follows three acknowledged single inserts: the call must return
// *storage.DegradedError, memory must hold none of the batch, and a
// reopen must replay none of it — also after a short write left half
// the batch's bytes in the file.
func TestInsertManyFaultedCommitInsertsNothing(t *testing.T) {
	for _, kind := range []faultinject.DiskKind{faultinject.DiskENOSPC, faultinject.DiskShortWrite, faultinject.DiskFsyncFail} {
		t.Run(string(kind), func(t *testing.T) {
			dir := t.TempDir()
			db, dc := openChaos(t, dir, faultinject.DiskRule{Kind: kind, PathContains: ".wal", After: 3, Count: 1})
			c := db.Collection("runs")
			for i := 0; i < 3; i++ {
				if _, err := c.InsertOne(Doc{"_id": fmt.Sprintf("a%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			err := c.InsertMany(batchOf(100))
			var deg *storage.DegradedError
			if !errors.As(err, &deg) {
				t.Fatalf("faulted InsertMany returned %v, want *storage.DegradedError", err)
			}
			if dc.Fired(kind) != 1 {
				t.Fatalf("fault fired %d times, want once on the batch commit", dc.Fired(kind))
			}
			if n := c.Count(nil); n != 3 {
				t.Fatalf("memory holds %d documents after the failed batch, want 3", n)
			}
			db.Close()
			re := MustOpen(dir)
			defer re.Close()
			if n := re.Collection("runs").Count(nil); n != 3 {
				t.Fatalf("reopen replayed %d documents, want the 3 acknowledged", n)
			}
		})
	}
}

// TestInsertManyTornWriteReplaysPrefix is the crash case: power loss
// persists only part of the batch's bytes although the write and the
// fsync reported success. Replay must stop at the first torn frame:
// a non-empty, strict prefix of the batch, in order, nothing after it.
func TestInsertManyTornWriteReplaysPrefix(t *testing.T) {
	dir := t.TempDir()
	db, _ := openChaos(t, dir, faultinject.DiskRule{Kind: faultinject.DiskTornWrite, PathContains: ".wal", Count: 1})
	if err := db.Collection("runs").InsertMany(batchOf(100)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	re := MustOpen(dir)
	defer re.Close()
	got := re.Collection("runs").Find(nil)
	if len(got) == 0 || len(got) >= 100 {
		t.Fatalf("replayed %d of 100 documents, want a non-empty strict prefix", len(got))
	}
	for i, d := range got {
		if want := fmt.Sprintf("b%03d", i); d["_id"] != want {
			t.Fatalf("replayed document %d is %v, want %s", i, d["_id"], want)
		}
	}
}

// TestInsertManyDuplicateInsertsNothing: a batch that collides on a
// unique index — with a stored document or within itself — is rejected
// whole, in memory and on disk.
func TestInsertManyDuplicateInsertsNothing(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir)
	c := db.Collection("runs")
	c.CreateUniqueIndex("job_id")
	if _, err := c.InsertOne(Doc{"job_id": "stored"}); err != nil {
		t.Fatal(err)
	}
	within := batchOf(5)
	within[4]["job_id"] = within[1]["job_id"]
	against := batchOf(5)
	against[3]["job_id"] = "stored"
	sameID := batchOf(5)
	sameID[2]["_id"] = sameID[0]["_id"]
	for name, batch := range map[string][]Doc{"within the batch": within, "against the store": against, "_id within the batch": sameID} {
		var dup *ErrDuplicate
		if err := c.InsertMany(batch); !errors.As(err, &dup) {
			t.Fatalf("duplicate %s: InsertMany returned %v, want *ErrDuplicate", name, err)
		}
		if n := c.Count(nil); n != 1 {
			t.Fatalf("duplicate %s: %d documents in memory, want 1", name, n)
		}
	}
	db.Close()
	re := MustOpen(dir)
	defer re.Close()
	if n := re.Collection("runs").Count(nil); n != 1 {
		t.Fatalf("reopen replayed %d documents, want 1", n)
	}
}
