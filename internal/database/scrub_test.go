package database

import (
	"bytes"
	"os"
	"testing"
	"time"

	"gem5art/internal/database/dbtest"
)

// TestScrubberFindsRotInVerifiedBytes: bytes that rot after a pass has
// verified them are found by the very next pass — a blob whose content
// no longer matches its hash, and a journal record whose frame broke.
// A later pass still reports the journal: the scrubber remembers
// nothing between passes.
func TestScrubberFindsRotInVerifiedBytes(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir).(*DB)
	defer db.Close()
	content := []byte("checkpoint bytes that rot")
	hash, err := db.Files().Put("ckpt", content)
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("runs")
	for i := 0; i < 4; i++ {
		if _, err := c.InsertOne(Doc{"n": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := StartScrubber(db, time.Hour)
	defer s.Close()
	if rep := s.ScrubNow(); rep.Blobs != 1 || rep.JournalRecords != 4 || rep.Corrupt != 0 || rep.TornJournals != 0 {
		t.Fatalf("first pass = %+v, want 1 blob and 4 records verified clean", rep)
	}

	dbtest.RotBlob(t, dir, content)
	// Break the second record's frame: one CRC digit changes, the line
	// keeps its length.
	wal := journalPath(dir, "runs")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.IndexByte(data, '\n') + 1
	digit := byte('0')
	if data[off] == '0' {
		digit = '1'
	}
	f, err := os.OpenFile(wal, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{digit}, int64(off))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	rep := s.ScrubNow()
	if rep.Corrupt != 1 || len(rep.Quarantined) != 1 || rep.Quarantined[0] != hash || rep.TornJournals != 1 {
		t.Fatalf("pass after the rot = %+v, want blob %s corrupt and quarantined and 1 torn journal", rep, hash)
	}
	if last := s.LastReport(); last != rep {
		t.Fatalf("LastReport = %+v, want the pass just run", last)
	}
	if rep := s.ScrubNow(); rep.TornJournals != 1 || rep.Blobs != 0 || rep.Corrupt != 0 {
		t.Fatalf("third pass = %+v, want the torn journal again and the quarantined blob gone", rep)
	}
}
