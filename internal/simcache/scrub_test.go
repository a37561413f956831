package simcache

import (
	"errors"
	"testing"

	"gem5art/internal/database"
	"gem5art/internal/database/dbtest"
)

// TestScrubCheckpointsEvictsCorrupt: the checkpoint scrub detects a
// blob that rotted on disk, evicts its class document, and leaves the
// class collection consistent — every surviving document still resolves
// to verifying content, and the evicted class re-boots cleanly.
func TestScrubCheckpointsEvictsCorrupt(t *testing.T) {
	dir := t.TempDir()
	db, err := database.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	c := New(db, Options{})
	bad := BootClass{KernelHash: "k1", DiskHash: "d1", Cores: 1, Mem: "classic"}
	good := BootClass{KernelHash: "k2", DiskHash: "d2", Cores: 2, Mem: "classic"}
	rot := []byte("blob that will rot")
	if _, err := c.PutCheckpoint(bad, "cpt.bad", rot); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutCheckpoint(good, "cpt.good", []byte("blob that stays intact")); err != nil {
		t.Fatal(err)
	}

	// Rot the bad blob on disk, then force the store to re-read it:
	// reopening drops the in-memory chunks that would otherwise mask the
	// disk corruption. The load-time quarantine already evicts the blob;
	// the scrub must evict the now-dangling class document too.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	dbtest.RotBlob(t, dir, rot)
	db2, err := database.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db2.Close() })
	c2 := New(db2, Options{})

	scanned, evicted := c2.ScrubCheckpoints()
	if scanned != 2 || evicted != 1 {
		t.Fatalf("ScrubCheckpoints = (%d scanned, %d evicted), want (2, 1)", scanned, evicted)
	}
	col := db2.Collection(CheckpointCollection)
	if col.FindOne(database.Doc{"_id": bad.Key()}) != nil {
		t.Fatal("corrupt class document survived the scrub")
	}
	// Consistency: the surviving document still restores.
	if _, _, err := c2.Checkpoint(good); err != nil {
		t.Fatalf("healthy class broken by scrub: %v", err)
	}
	// The evicted class falls back to a fresh boot.
	blob, _, shared, err := c2.BootOnce(bad, "cpt.bad", func() ([]byte, error) {
		return []byte("re-booted"), nil
	})
	if err != nil || shared || string(blob) != "re-booted" {
		t.Fatalf("evicted class re-boot = (%q, shared=%v, %v)", blob, shared, err)
	}
}

// TestPutCheckpointLowWaterPreflight: the disk low-water mark refuses
// the archive with ErrLowDisk before any bytes are written, and
// BootOnce degrades to an unarchived boot rather than failing the run.
func TestPutCheckpointLowWaterPreflight(t *testing.T) {
	db := memDB(t)
	c := New(db, Options{
		MinFreeBytes: 1 << 20,
		FreeBytes:    func() (int64, error) { return 1 << 10, nil }, // 1 KiB free
	})
	class := BootClass{KernelHash: "k", DiskHash: "d", Cores: 1, Mem: "classic"}
	if _, err := c.PutCheckpoint(class, "cpt.1", []byte("blob")); !errors.Is(err, ErrLowDisk) {
		t.Fatalf("PutCheckpoint under low disk = %v, want ErrLowDisk", err)
	}
	if db.Collection(CheckpointCollection).Count(nil) != 0 {
		t.Fatal("refused archive still recorded a class document")
	}
	// BootOnce: the boot succeeds, the archive is skipped, hash is empty.
	blob, hash, shared, err := c.BootOnce(class, "cpt.1", func() ([]byte, error) {
		return []byte("booted"), nil
	})
	if err != nil || shared || string(blob) != "booted" || hash != "" {
		t.Fatalf("BootOnce under low disk = (%q, %q, shared=%v, %v)", blob, hash, shared, err)
	}
}

// TestPreflightAllowsWhenRoomy: a healthy disk admits the archive.
func TestPreflightAllowsWhenRoomy(t *testing.T) {
	db := memDB(t)
	c := New(db, Options{
		MinFreeBytes: 1 << 10,
		FreeBytes:    func() (int64, error) { return 1 << 30, nil },
	})
	class := BootClass{KernelHash: "k", DiskHash: "d", Cores: 1, Mem: "classic"}
	hash, err := c.PutCheckpoint(class, "cpt.1", []byte("blob"))
	if err != nil || hash == "" {
		t.Fatalf("PutCheckpoint with room = (%q, %v)", hash, err)
	}
}
