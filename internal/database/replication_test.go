package database

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// openDB opens a concrete *DB for replication tests, which exercise
// engine-level hooks the storage.Store interface does not carry.
func openDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := open(dir, Options{Journal: true, SyncOnCommit: false, CompactAfter: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// replDocsByID normalizes documents through a JSON round-trip so a
// primary's in-memory ints compare equal to a replica's replayed
// float64s — the same widening a plain restart produces.
func replDocsByID(t *testing.T, db *DB, col string) map[string]Doc {
	t.Helper()
	out := map[string]Doc{}
	for _, d := range db.Collection(col).Find(nil) {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var norm Doc
		if err := json.Unmarshal(raw, &norm); err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprint(d["_id"])] = norm
	}
	return out
}

func assertConverged(t *testing.T, primary, replica *DB, col string) {
	t.Helper()
	p, r := replDocsByID(t, primary, col), replDocsByID(t, replica, col)
	if !reflect.DeepEqual(p, r) {
		t.Fatalf("replica diverged from primary:\nprimary: %v\nreplica: %v", p, r)
	}
}

// shipAll drains the primary's journal into the replica from (gen,
// offset), returning the new offset.
func shipAll(t *testing.T, primary, replica *DB, col string, gen uint64, from int64) int64 {
	t.Helper()
	for {
		data, next, err := primary.JournalSegment(col, gen, from, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return from
		}
		_, consumed, err := replica.ApplyJournalSegment(col, data)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != int64(len(data)) {
			t.Fatalf("clean segment partially consumed: %d/%d", consumed, len(data))
		}
		from = next
	}
}

func TestJournalSegmentShipAndReplay(t *testing.T) {
	primary := openDB(t, t.TempDir())
	replica := openDB(t, t.TempDir())
	defer primary.Close()
	defer replica.Close()

	col := "queue"
	for i := 0; i < 20; i++ {
		if _, err := primary.Collection(col).InsertOne(Doc{"_id": fmt.Sprintf("job-%02d", i), "state": "pending", "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	off := shipAll(t, primary, replica, col, 0, 0)

	// Mutations after the first shipment arrive incrementally.
	for i := 0; i < 10; i++ {
		if _, err := primary.Collection(col).UpdateOne(Doc{"_id": fmt.Sprintf("job-%02d", i)}, Doc{"state": "done"}); err != nil {
			t.Fatal(err)
		}
	}
	primary.Collection(col).DeleteMany(Doc{"_id": "job-19"})
	off = shipAll(t, primary, replica, col, 0, off)
	assertConverged(t, primary, replica, col)

	if got := replica.Collection(col).Count(Doc{"state": "done"}); got != 10 {
		t.Fatalf("replica done count = %d, want 10", got)
	}
	if off != primary.JournalSize(col) {
		t.Fatalf("offset %d != primary journal size %d", off, primary.JournalSize(col))
	}
}

// TestApplyJournalSegmentTornTail is the standby-receives-a-torn-tail
// scenario: a shipment cut mid-record applies its valid prefix, reports
// the consumed offset, and the resumed shipment from that offset
// converges the replica with the primary — no divergence, no skipped
// or doubled records.
func TestApplyJournalSegmentTornTail(t *testing.T) {
	primary := openDB(t, t.TempDir())
	replica := openDB(t, t.TempDir())
	defer primary.Close()
	defer replica.Close()

	col := "queue"
	for i := 0; i < 8; i++ {
		if _, err := primary.Collection(col).InsertOne(Doc{"_id": fmt.Sprintf("job-%d", i), "state": "pending"}); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err := primary.JournalSegment(col, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the shipment in the middle of its last record.
	cut := len(data) - len(data)/6
	torn := data[:cut]
	applied, consumed, err := replica.ApplyJournalSegment(col, torn)
	if err != nil {
		t.Fatal(err)
	}
	if applied >= 8 || applied == 0 {
		t.Fatalf("torn segment applied %d records, want a strict prefix of 8", applied)
	}
	if consumed >= int64(cut) {
		t.Fatalf("consumed %d of a %d-byte torn segment", consumed, cut)
	}
	if got := replica.Collection(col).Count(nil); got != applied {
		t.Fatalf("replica holds %d docs after torn apply, want %d", got, applied)
	}

	// A corrupted (bit-flipped, not merely truncated) tail must stop the
	// apply at the same boundary: the valid prefix.
	corrupt := append(append([]byte(nil), data[:consumed]...), data[consumed:]...)
	corrupt[consumed+int64(10)] ^= 0xff
	applied2, consumed2, err := replica.ApplyJournalSegment(col, corrupt[consumed:])
	if err != nil {
		t.Fatal(err)
	}
	if applied2 != 0 || consumed2 != 0 {
		t.Fatalf("corrupt record applied: %d records, %d bytes", applied2, consumed2)
	}

	// Resync from the consumed offset with clean bytes: full convergence.
	if _, c2, err := replica.ApplyJournalSegment(col, data[consumed:]); err != nil {
		t.Fatal(err)
	} else if consumed+c2 != int64(len(data)) {
		t.Fatalf("resumed shipment consumed %d, want %d", consumed+c2, int64(len(data))-consumed)
	}
	assertConverged(t, primary, replica, col)
}

// A replica that crashes after applying shipped records must reload
// them: ApplyJournalSegment journals locally.
func TestReplicaAppliedSegmentsAreDurable(t *testing.T) {
	primary := openDB(t, t.TempDir())
	repDir := t.TempDir()
	replica := openDB(t, repDir)
	defer primary.Close()

	col := "queue"
	for i := 0; i < 5; i++ {
		if _, err := primary.Collection(col).InsertOne(Doc{"_id": fmt.Sprintf("job-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	shipAll(t, primary, replica, col, 0, 0)
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openDB(t, repDir)
	defer reopened.Close()
	assertConverged(t, primary, reopened, col)
}

func TestJournalSegmentResetAndSnapshotResync(t *testing.T) {
	primary := openDB(t, t.TempDir())
	replica := openDB(t, t.TempDir())
	defer primary.Close()
	defer replica.Close()

	col := "queue"
	for i := 0; i < 6; i++ {
		if _, err := primary.Collection(col).InsertOne(Doc{"_id": fmt.Sprintf("job-%d", i), "state": "pending"}); err != nil {
			t.Fatal(err)
		}
	}
	// Reading past the journal's extent signals a reset.
	if _, _, err := primary.JournalSegment(col, 0, primary.JournalSize(col)+100, 0); !errors.Is(err, ErrJournalReset) {
		t.Fatalf("err = %v, want ErrJournalReset", err)
	}

	// Full resync: snapshot + (gen, offset), then incremental from there.
	docs, off, gen := primary.CollectionSnapshot(col)
	if err := replica.RestoreCollection(col, docs); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Collection(col).UpdateOne(Doc{"_id": "job-0"}, Doc{"state": "done"}); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, replica, col, gen, off)
	assertConverged(t, primary, replica, col)

	// RestoreCollection is durable: a reopened replica still has it.
	names := replica.CollectionNames()
	sort.Strings(names)
	if len(names) != 1 || names[0] != col {
		t.Fatalf("replica collections = %v", names)
	}
}

// TestJournalSegmentStaleGenerationAfterRegrow is the silent-stall
// regression: a journal reset followed by enough new writes to regrow
// to or past a reader's old offset must still fail that reader with
// ErrJournalReset — a size check alone would serve mid-record bytes the
// replica can never consume, stalling replication forever.
func TestJournalSegmentStaleGenerationAfterRegrow(t *testing.T) {
	primary := openDB(t, t.TempDir())
	replica := openDB(t, t.TempDir())
	defer primary.Close()
	defer replica.Close()

	col := "queue"
	for i := 0; i < 6; i++ {
		if _, err := primary.Collection(col).InsertOne(Doc{"_id": fmt.Sprintf("job-%d", i), "state": "pending"}); err != nil {
			t.Fatal(err)
		}
	}
	off := shipAll(t, primary, replica, col, 0, 0)
	if off == 0 {
		t.Fatal("nothing shipped")
	}

	// Reset the journal (Flush folds it into a snapshot), then regrow it
	// well past the replica's offset with differently-sized records.
	if err := primary.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := primary.Collection(col).InsertOne(Doc{"_id": fmt.Sprintf("regrown-job-%02d", i), "state": "pending", "pad": "xxxxxxxxxxxxxxxx"}); err != nil {
			t.Fatal(err)
		}
	}
	if primary.JournalSize(col) <= off {
		t.Fatalf("journal did not regrow past old offset: %d <= %d", primary.JournalSize(col), off)
	}

	// The stale reader must be told to resync, not fed mid-record bytes.
	if _, _, err := primary.JournalSegment(col, 0, off, 0); !errors.Is(err, ErrJournalReset) {
		t.Fatalf("stale-generation read: err = %v, want ErrJournalReset", err)
	}

	// The resync path converges.
	docs, off2, gen := primary.CollectionSnapshot(col)
	if err := replica.RestoreCollection(col, docs); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Collection(col).InsertOne(Doc{"_id": "post-resync"}); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, replica, col, gen, off2)
	assertConverged(t, primary, replica, col)
}

func TestJournalSegmentNotJournaled(t *testing.T) {
	mem, err := open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.JournalSegment("queue", 0, 0, 0); !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("err = %v, want ErrNotJournaled", err)
	}
}

func TestHealth(t *testing.T) {
	db := openDB(t, t.TempDir())
	if err := db.Health(); err != nil {
		t.Fatalf("healthy store reports %v", err)
	}
	if _, err := db.Collection("runs").InsertOne(Doc{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Health(); err == nil {
		t.Fatal("closed store reports healthy")
	}
}

// TestStandbyMaintainsPlainIndexes covers a standby whose collection
// declares only a plain index: both replication paths — a shipped
// journal segment and a snapshot resync — must leave the index
// agreeing with a scan, including for documents a shipped update moved
// between keys.
func TestStandbyMaintainsPlainIndexes(t *testing.T) {
	primary := openDB(t, t.TempDir())
	replica := openDB(t, t.TempDir())
	defer primary.Close()
	defer replica.Close()

	col := "runs"
	replica.Collection(col).CreateIndex("launch_id")
	agree := func(when string) {
		t.Helper()
		rc := replica.Collection(col)
		all := rc.Find(nil)
		for _, launch := range []string{"l0", "l1", "l2", "nope"} {
			want := 0
			for _, d := range all {
				if Matches(d, Doc{"launch_id": launch}) {
					want++
				}
			}
			if got := rc.Count(Doc{"launch_id": launch}); got != want {
				t.Fatalf("%s: Count({launch_id: %s}) = %d from the index, %d by scan", when, launch, got, want)
			}
		}
	}

	pc := primary.Collection(col)
	for i := 0; i < 9; i++ {
		if _, err := pc.InsertOne(Doc{"_id": fmt.Sprintf("r%d", i), "launch_id": fmt.Sprintf("l%d", i%2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.UpdateOne(Doc{"_id": "r0"}, Doc{"launch_id": "l2"}); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, replica, col, 0, 0)
	assertConverged(t, primary, replica, col)
	agree("after a shipped segment")

	// Snapshot resync, then more incremental shipping on top of it.
	if n := pc.DeleteMany(Doc{"launch_id": "l1"}); n != 4 {
		t.Fatalf("deleted %d", n)
	}
	docs, off, gen := primary.CollectionSnapshot(col)
	if err := replica.RestoreCollection(col, docs); err != nil {
		t.Fatal(err)
	}
	agree("after a snapshot resync")
	if _, err := pc.UpdateOne(Doc{"_id": "r2"}, Doc{"launch_id": "l1"}); err != nil {
		t.Fatal(err)
	}
	shipAll(t, primary, replica, col, gen, off)
	assertConverged(t, primary, replica, col)
	agree("after shipping onto the resynced standby")
}
