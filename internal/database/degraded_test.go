package database

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gem5art/internal/database/dbtest"
	"gem5art/internal/database/storage"
	"gem5art/internal/faultinject"
)

// openChaos opens a journaled store whose durable writes flow through a
// DiskChaos armed with the given rules.
func openChaos(t *testing.T, dir string, rules ...faultinject.DiskRule) (*DB, *faultinject.DiskChaos) {
	t.Helper()
	dc := faultinject.NewDiskChaos(1, nil, rules...)
	store, err := OpenWith(dir, Options{Journal: true, SyncOnCommit: true, FS: dc})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return store.(*DB), dc
}

// TestJournalFailureNeverAcknowledged is the ISSUE's core acceptance
// criterion: an injected journal append/fsync failure must never be
// acknowledged as a successful commit. The failing operation returns
// *storage.DegradedError, the store flips read-only, and the document
// is absent both in memory and after reopen.
func TestJournalFailureNeverAcknowledged(t *testing.T) {
	dir := t.TempDir()
	db, _ := openChaos(t, dir, faultinject.DiskRule{
		Kind: faultinject.DiskFsyncFail, PathContains: ".wal", After: 2, Count: 1,
	})
	c := db.Collection("runs")
	if _, err := c.InsertOne(Doc{"_id": "r1", "n": 1.0}); err != nil {
		t.Fatalf("first insert should commit: %v", err)
	}
	if _, err := c.InsertOne(Doc{"_id": "r2", "n": 2.0}); err != nil {
		t.Fatalf("second insert should commit: %v", err)
	}
	// Third append hits the fsync fault: the commit must fail typed.
	_, err := c.InsertOne(Doc{"_id": "r3", "n": 3.0})
	var deg *storage.DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("faulted insert returned %v, want *storage.DegradedError", err)
	}
	if deg.Reason != "journal-sync" {
		t.Fatalf("degraded reason = %q, want journal-sync", deg.Reason)
	}
	// The unacknowledged document is not applied in memory...
	if c.FindOne(Doc{"_id": "r3"}) != nil {
		t.Fatal("unacknowledged insert is visible in memory")
	}
	// ...the store is read-only (even though the fault was Count:1)...
	if _, err := c.InsertOne(Doc{"_id": "r4"}); !errors.As(err, &deg) {
		t.Fatalf("degraded store accepted a later insert: %v", err)
	}
	if err := db.Health(); !errors.As(err, &deg) {
		t.Fatalf("Health() = %v, want degraded", err)
	}
	// ...but reads keep serving.
	if c.FindOne(Doc{"_id": "r1"}) == nil {
		t.Fatal("degraded store stopped serving reads")
	}
	db.Close()

	// Reopen over the same directory with a healthy disk: exactly the
	// acknowledged commits replay.
	store2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer store2.Close()
	c2 := store2.Collection("runs")
	if n := c2.Count(nil); n != 2 {
		t.Fatalf("reopened store has %d docs, want the 2 acknowledged", n)
	}
	if c2.FindOne(Doc{"_id": "r3"}) != nil {
		t.Fatal("unacknowledged insert replayed after reopen")
	}
}

// TestUpdateDeleteRefusedWhenDegraded: every mutating verb fails fast
// once the store is degraded, and none of them mutates memory.
func TestUpdateDeleteRefusedWhenDegraded(t *testing.T) {
	dir := t.TempDir()
	db, _ := openChaos(t, dir, faultinject.DiskRule{
		Kind: faultinject.DiskEIO, Op: faultinject.OpWrite, PathContains: ".wal", After: 1,
	})
	c := db.Collection("runs")
	if _, err := c.InsertOne(Doc{"_id": "r1", "state": "queued"}); err != nil {
		t.Fatalf("seed insert: %v", err)
	}
	if ok, err := c.UpdateOne(Doc{"_id": "r1"}, Doc{"state": "running"}); ok || err == nil {
		t.Fatalf("update under EIO: ok=%v err=%v, want failure", ok, err)
	}
	if d := c.FindOne(Doc{"_id": "r1"}); d["state"] != "queued" {
		t.Fatalf("failed update mutated memory: state=%v", d["state"])
	}
	if n := c.DeleteMany(Doc{"_id": "r1"}); n != 0 {
		t.Fatalf("degraded delete removed %d docs", n)
	}
	if c.FindOne(Doc{"_id": "r1"}) == nil {
		t.Fatal("degraded delete mutated memory")
	}
}

// TestFileStorePutFailFast: a blob whose pack frame faults (short
// write, fsync failure, ENOSPC) stores nothing anywhere — not in
// memory, not in the pack, not after a reopen — and returns the typed
// degraded error.
func TestFileStorePutFailFast(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule faultinject.DiskRule
	}{
		{"short-write", faultinject.DiskRule{Kind: faultinject.DiskShortWrite, PathContains: "blobs.pack"}},
		{"fsync-fail", faultinject.DiskRule{Kind: faultinject.DiskFsyncFail, PathContains: "blobs.pack"}},
		{"enospc", faultinject.DiskRule{Kind: faultinject.DiskENOSPC, PathContains: "blobs.pack"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, _ := openChaos(t, dir, tc.rule)
			hash, err := db.Files().Put("vmlinux", []byte("kernel image bytes"))
			var deg *storage.DegradedError
			if !errors.As(err, &deg) || hash != "" {
				t.Fatalf("faulted Put = (%q, %v), want (\"\", DegradedError)", hash, err)
			}
			if deg.Reason != "filestore" {
				t.Fatalf("degraded reason = %q, want filestore", deg.Reason)
			}
			want := HashBytes([]byte("kernel image bytes"))
			if db.Files().Exists(want) {
				t.Fatal("failed Put left the blob visible in memory")
			}
			if n := packFrames(t, dir, want); n != 0 {
				t.Fatalf("failed Put left %d frames in the pack", n)
			}
			db.Close()
			re := MustOpen(dir)
			defer re.Close()
			if re.Files().Exists(want) {
				t.Fatal("failed Put served after reopen")
			}
		})
	}
}

// TestPackTornWriteDegrades: a torn write on the pack — the write
// reports success but only a prefix lands — degrades the store at that
// Put. After a reopen the blobs acknowledged before the torn frame are
// served and the torn frame's blob is not.
func TestPackTornWriteDegrades(t *testing.T) {
	// The two acknowledged frames are the first four pack writes, so the
	// fault fires on the 5th write (the third frame's header), then on
	// the 6th (its content).
	for _, after := range []int{4, 5} {
		t.Run(fmt.Sprintf("write-%d", after+1), func(t *testing.T) {
			dir := t.TempDir()
			db, dc := openChaos(t, dir, faultinject.DiskRule{
				Kind: faultinject.DiskTornWrite, PathContains: "blobs.pack", After: after, Count: 1,
			})
			var acked []string
			for i := 0; i < 2; i++ {
				h, err := db.Files().Put(fmt.Sprintf("stats-%d", i), []byte(fmt.Sprintf("sim_insts %d\n", i)))
				if err != nil {
					t.Fatal(err)
				}
				acked = append(acked, h)
			}
			torn := []byte("the torn frame's content")
			_, err := db.Files().Put("torn", torn)
			var deg *storage.DegradedError
			if !errors.As(err, &deg) || deg.Reason != "filestore" {
				t.Fatalf("torn Put = %v, want a filestore DegradedError", err)
			}
			if dc.Fired(faultinject.DiskTornWrite) != 1 {
				t.Fatal("torn write never fired")
			}
			db.Close()
			re := MustOpen(dir)
			defer re.Close()
			for i, h := range acked {
				if got, err := re.Files().Get(h); err != nil || string(got) != fmt.Sprintf("sim_insts %d\n", i) {
					t.Fatalf("acknowledged blob %d after reopen = (%q, %v)", i, got, err)
				}
			}
			if re.Files().Exists(HashBytes(torn)) {
				t.Fatal("torn frame's blob served after reopen")
			}
		})
	}
}

// TestTmpSweepAtOpen: orphaned *.tmp files stranded by a crash
// mid-rename are removed the next time the store opens, in all three
// durable directories.
func TestTmpSweepAtOpen(t *testing.T) {
	dir := t.TempDir()
	store := MustOpen(dir)
	if _, err := store.Collection("runs").InsertOne(Doc{"_id": "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	orphans := []string{
		filepath.Join(dir, "collections", "runs.jsonl.tmp"),
		filepath.Join(dir, "journal", "stray.wal.tmp"),
		filepath.Join(dir, "files", "deadbeef.blob.tmp"),
	}
	for _, p := range orphans {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with orphans: %v", err)
	}
	defer store2.Close()
	for _, p := range orphans {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the open-time sweep", p)
		}
	}
	if store2.Collection("runs").FindOne(Doc{"_id": "r1"}) == nil {
		t.Fatal("sweep removed real state")
	}
}

// TestScrubQuarantinesAndRepairs: a blob corrupted on disk is detected
// by the scrubber, quarantined (never served again), and restored from
// a repair source that still holds a good copy.
func TestScrubQuarantinesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir).(*DB)
	content := []byte("checkpoint payload to corrupt")
	hash, err := db.Files().Put("cpt.1", content)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy standby holding the same content is the repair source.
	standby := MustOpen(t.TempDir())
	if _, err := standby.Files().Put("cpt.1", content); err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	// Flip bits in the primary's on-disk blob.
	dbtest.RotBlob(t, dir, content)

	rep := db.Scrub(FileRepair(standby.Files()))
	if rep.Corrupt != 1 || len(rep.Quarantined) != 1 || rep.Quarantined[0] != hash {
		t.Fatalf("scrub report = %+v, want 1 corrupt/quarantined %s", rep, hash)
	}
	if len(rep.Repaired) != 1 || rep.Repaired[0] != hash {
		t.Fatalf("scrub did not repair from source: %+v", rep)
	}
	// Quarantine dir holds the corrupt bytes for forensics.
	if _, err := os.Stat(filepath.Join(dir, "quarantine", hash+".blob")); err != nil {
		t.Fatalf("quarantined blob missing: %v", err)
	}
	// The repaired blob serves the original content again.
	got, err := db.Files().Get(hash)
	if err != nil || string(got) != string(content) {
		t.Fatalf("repaired Get = (%q, %v)", got, err)
	}
	if raw := packContent(t, dir, hash); string(raw) != string(content) {
		t.Fatalf("repaired blob on disk = %q", raw)
	}
	db.Close()
	// The repair frame wins over the rotten one at the next load.
	re := MustOpen(dir)
	defer re.Close()
	if got, err := re.Files().Get(hash); err != nil || string(got) != string(content) {
		t.Fatalf("repaired blob after reopen = (%q, %v)", got, err)
	}
}

// TestScrubQuarantineWithoutSource: with no repair source the corrupt
// blob is quarantined and simply gone from the store.
func TestScrubQuarantineWithoutSource(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir).(*DB)
	defer db.Close()
	hash, err := db.Files().Put("img", []byte("disk image"))
	if err != nil {
		t.Fatal(err)
	}
	dbtest.RotBlob(t, dir, []byte("disk image"))
	rep := db.Scrub(nil)
	if rep.Corrupt != 1 || len(rep.Repaired) != 0 {
		t.Fatalf("scrub report = %+v", rep)
	}
	if db.Files().Exists(hash) {
		t.Fatal("corrupt blob still served after quarantine")
	}
}

// TestScrubDetectsTornJournal: bytes chopped off an acknowledged
// journal extent are reported as a torn journal.
func TestScrubDetectsTornJournal(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir).(*DB)
	c := db.Collection("runs")
	for i := 0; i < 4; i++ {
		if _, err := c.InsertOne(Doc{"n": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wal := filepath.Join(dir, "journal", "runs.wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the middle of the journal (not just the tail).
	mut := []byte(strings.Replace(string(data), "insert", "inzert", 2))
	if err := os.WriteFile(wal, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := db.Scrub(nil)
	if rep.TornJournals != 1 {
		t.Fatalf("scrub saw %d torn journals, want 1 (report %+v)", rep.TornJournals, rep)
	}
	db.Close()
}

// TestScrubHealthyStoreUnderWrites: scrub passes racing a stream of
// journaled inserts, and the compactions those inserts trigger, never
// report damage on a healthy store.
func TestScrubHealthyStoreUnderWrites(t *testing.T) {
	store, err := OpenWith(t.TempDir(), Options{Journal: true, SyncOnCommit: false, CompactAfter: 256})
	if err != nil {
		t.Fatal(err)
	}
	db := store.(*DB)
	defer db.Close()
	const blobs = 64
	for i := 0; i < blobs; i++ {
		if _, err := db.Files().Put(fmt.Sprintf("ckpt-%d", i), []byte(fmt.Sprintf("checkpoint blob %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// runs is compacted many times over; launches, updated once per 100
	// runs, never reaches CompactAfter, so its journal always has records.
	runs, launches := db.Collection("scrubbed_runs"), db.Collection("scrubbed_launches")
	if _, err := launches.InsertOne(Doc{"_id": "l1", "done": 0.0}); err != nil {
		t.Fatal(err)
	}
	compactions := dbCompactions.With("scrubbed_runs").Value()

	// The interval never elapses: the goroutine below drives the passes.
	scrubber := StartScrubber(db, time.Hour, nil)
	defer scrubber.Close()
	var reps []*ScrubReport
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				reps = append(reps, scrubber.ScrubNow())
			}
		}
	}()
	for i := 1; i <= 5000 && err == nil; i++ {
		if _, err = runs.InsertOne(Doc{"n": float64(i), "status": "done"}); err == nil && i%100 == 0 {
			_, err = launches.UpdateOne(Doc{"_id": "l1"}, Doc{"done": float64(i)})
		}
	}
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	db.compactWG.Wait()
	if n := dbCompactions.With("scrubbed_runs").Value() - compactions; n < 2 {
		t.Fatalf("%g compactions during the inserts, want several", n)
	}

	final := db.Scrub(nil)
	for i, rep := range append(reps, final) {
		if rep.Corrupt != 0 || rep.TornJournals != 0 || rep.Degraded != "" ||
			rep.LockWait < 0 || rep.LockWait > rep.Duration {
			t.Fatalf("pass %d of %d reported damage on a healthy store: %+v", i+1, len(reps)+1, rep)
		}
	}
	if final.Blobs != blobs || final.JournalRecords == 0 {
		t.Fatalf("final pass verified %d blobs and %d journal records, want %d and > 0",
			final.Blobs, final.JournalRecords, blobs)
	}
}

// TestCorruptBlobQuarantinedAtLoad: a store whose blob rotted while it
// was closed still opens; the bad blob — a frame in the middle of the
// pack — is quarantined, and the frames before and after it load.
func TestCorruptBlobQuarantinedAtLoad(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir)
	firstHash, err := db.Files().Put("first", []byte("written before the bad one"))
	if err != nil {
		t.Fatal(err)
	}
	badHash, err := db.Files().Put("bad", []byte("will rot"))
	if err != nil {
		t.Fatal(err)
	}
	goodHash, err := db.Files().Put("good", []byte("stays intact"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	dbtest.RotBlob(t, dir, []byte("will rot"))
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("open with corrupt blob should quarantine, not fail: %v", err)
	}
	defer db2.Close()
	if db2.Files().Exists(badHash) {
		t.Fatal("corrupt blob served after reopen")
	}
	if got, err := db2.Files().Get(goodHash); err != nil || string(got) != "stays intact" {
		t.Fatalf("good blob lost: (%q, %v)", got, err)
	}
	if got, err := db2.Files().Get(firstHash); err != nil || string(got) != "written before the bad one" {
		t.Fatalf("blob before the bad frame lost: (%q, %v)", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", badHash+".blob")); err != nil {
		t.Fatalf("corrupt blob not quarantined: %v", err)
	}
}

// TestSnapshotFaultDegradesCompaction: a snapshot write failing mid-
// compaction degrades the store instead of acknowledging a Flush that
// did not happen.
func TestSnapshotFaultDegradesCompaction(t *testing.T) {
	dir := t.TempDir()
	db, _ := openChaos(t, dir, faultinject.DiskRule{
		Kind: faultinject.DiskENOSPC, Op: faultinject.OpWrite, PathContains: ".jsonl.tmp",
	})
	c := db.Collection("runs")
	if _, err := c.InsertOne(Doc{"_id": "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err == nil {
		t.Fatal("Flush acknowledged success under ENOSPC")
	}
	var deg *storage.DegradedError
	if err := db.Health(); !errors.As(err, &deg) {
		t.Fatalf("Health after failed flush = %v, want degraded", err)
	}
}
