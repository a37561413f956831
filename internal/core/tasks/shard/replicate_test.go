package shard

import (
	"fmt"
	"testing"
	"time"

	"gem5art/internal/database"
)

func openShardStore(t *testing.T) *database.DB {
	t.Helper()
	store, err := database.OpenWith(t.TempDir(), database.Options{
		Journal: true, SyncOnCommit: false, CompactAfter: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store.(*database.DB)
}

func TestShipperIncremental(t *testing.T) {
	primary, standby := openShardStore(t), openShardStore(t)
	sh := NewShipper(0, primary, standby, "broker_queue")

	col := primary.Collection("broker_queue")
	for i := 0; i < 10; i++ {
		if _, err := col.InsertOne(database.Doc{"_id": fmt.Sprintf("job-%d", i), "state": "pending"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.ShipOnce(); err != nil {
		t.Fatal(err)
	}
	if got := standby.Collection("broker_queue").Count(nil); got != 10 {
		t.Fatalf("standby holds %d docs, want 10", got)
	}
	if sh.Lag() != 0 {
		t.Fatalf("lag = %d after full ship", sh.Lag())
	}

	if _, err := col.UpdateOne(database.Doc{"_id": "job-3"}, database.Doc{"state": "done"}); err != nil {
		t.Fatal(err)
	}
	if sh.Lag() == 0 {
		t.Fatal("lag = 0 with an unshipped record")
	}
	n, err := sh.ShipOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("incremental ship replayed %d records, want 1", n)
	}
	if got := standby.Collection("broker_queue").Count(database.Doc{"state": "done"}); got != 1 {
		t.Fatalf("standby done count = %d, want 1", got)
	}
}

func TestShipperResyncAfterJournalReset(t *testing.T) {
	primary, standby := openShardStore(t), openShardStore(t)
	sh := NewShipper(1, primary, standby, "broker_queue")

	col := primary.Collection("broker_queue")
	for i := 0; i < 5; i++ {
		if _, err := col.InsertOne(database.Doc{"_id": fmt.Sprintf("job-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.ShipOnce(); err != nil {
		t.Fatal(err)
	}
	// Compaction resets the primary journal; the shipper's offset is now
	// past the extent and the next ship must fall back to a snapshot
	// resync instead of erroring or diverging.
	if err := primary.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.InsertOne(database.Doc{"_id": "job-after-compact"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ShipOnce(); err != nil {
		t.Fatal(err)
	}
	if got := standby.Collection("broker_queue").Count(nil); got != 6 {
		t.Fatalf("standby holds %d docs after resync, want 6", got)
	}
}

// TestShipperResyncAfterJournalRegrow covers the stall the size-only
// reset check missed: the primary's journal is reset and then regrows
// past the shipper's offset. The shipper must detect the stale
// generation and resync instead of retrying mid-record bytes forever.
func TestShipperResyncAfterJournalRegrow(t *testing.T) {
	primary, standby := openShardStore(t), openShardStore(t)
	sh := NewShipper(3, primary, standby, "broker_queue")

	col := primary.Collection("broker_queue")
	for i := 0; i < 5; i++ {
		if _, err := col.InsertOne(database.Doc{"_id": fmt.Sprintf("job-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.ShipOnce(); err != nil {
		t.Fatal(err)
	}
	off := sh.Offset()

	// Reset, then regrow the journal well past the shipped offset.
	if err := primary.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := col.InsertOne(database.Doc{"_id": fmt.Sprintf("regrown-job-%02d", i), "pad": "xxxxxxxxxxxxxxxx"}); err != nil {
			t.Fatal(err)
		}
	}
	if primary.JournalSize("broker_queue") <= off {
		t.Fatalf("journal did not regrow past old offset: %d <= %d", primary.JournalSize("broker_queue"), off)
	}

	n, err := sh.ShipOnce()
	if err != nil {
		t.Fatal(err)
	}
	if got := standby.Collection("broker_queue").Count(nil); got != 45 {
		t.Fatalf("standby holds %d docs after regrow resync (replayed %d), want 45", got, n)
	}
	if sh.Lag() != 0 {
		t.Fatalf("lag = %d after resync", sh.Lag())
	}
}

func TestShipperRun(t *testing.T) {
	primary, standby := openShardStore(t), openShardStore(t)
	sh := NewShipper(2, primary, standby, "broker_queue")
	// Wait for Run to return before the stores' temp dirs are removed:
	// a ShipOnce still writing the standby would leave the dir non-empty.
	stop, ran := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ran)
		sh.Run(5*time.Millisecond, stop)
	}()
	defer func() {
		close(stop)
		<-ran
	}()

	col := primary.Collection("broker_queue")
	for i := 0; i < 20; i++ {
		if _, err := col.InsertOne(database.Doc{"_id": fmt.Sprintf("job-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if standby.Collection("broker_queue").Count(nil) == 20 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("standby converged to %d/20 docs", standby.Collection("broker_queue").Count(nil))
}
