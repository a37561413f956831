package database

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// docsByID returns every document keyed by _id, for state comparison.
func docsByID(c Collection) map[string]Doc {
	out := make(map[string]Doc)
	for _, d := range c.Find(nil) {
		out[fmt.Sprint(d["_id"])] = d
	}
	return out
}

// normalize round-trips a state through JSON so int/float64 and
// []string/[]any representation differences cannot mask (or fake) a
// mismatch between a replayed store and a flushed one.
func normalize(t *testing.T, v map[string]Doc) map[string]Doc {
	t.Helper()
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]Doc
	if err := json.Unmarshal(j, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJournalReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir)
	c := db.Collection("runs")
	id1, err := c.InsertOne(Doc{"name": "boot", "ticks": 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertOne(Doc{"name": "npb", "ticks": 200}); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.UpdateOne(Doc{"_id": id1}, Doc{"status": "done"}); err != nil || !ok {
		t.Fatalf("UpdateOne = %v, %v", ok, err)
	}
	if n := c.DeleteMany(Doc{"name": "npb"}); n != 1 {
		t.Fatalf("DeleteMany removed %d", n)
	}
	// Close without Flush: durability must come from the journal alone.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "collections", "runs.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("snapshot written without Flush (err=%v) — replay path not exercised", err)
	}

	db2 := MustOpen(dir)
	defer db2.Close()
	c2 := db2.Collection("runs")
	if n := c2.Count(nil); n != 1 {
		t.Fatalf("replayed %d docs, want 1", n)
	}
	got := c2.FindOne(Doc{"_id": id1})
	if got == nil || got["status"] != "done" {
		t.Fatalf("replayed doc = %v", got)
	}
	// Ids must not be reissued after replay.
	id3, err := c2.InsertOne(Doc{"name": "spec"})
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 || id3 == "runs-2" {
		t.Fatalf("reissued id %s after replay", id3)
	}
}

func TestJournalTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir)
	c := db.Collection("runs")
	for i := 0; i < 3; i++ {
		if _, err := c.InsertOne(Doc{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: cut the last record in half.
	wal := journalPath(dir, "runs")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range data {
		if b == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("journal has %d records, want 3", lines)
	}
	if err := os.WriteFile(wal, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := MustOpen(dir)
	c2 := db2.Collection("runs")
	if n := c2.Count(nil); n != 2 {
		t.Fatalf("replayed %d docs after torn tail, want 2", n)
	}
	// The torn bytes must be gone: new appends start at the last good
	// record, and a further reopen sees a consistent prefix + new ops.
	if _, err := c2.InsertOne(Doc{"seq": 99}); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := MustOpen(dir)
	defer db3.Close()
	c3 := db3.Collection("runs")
	if n := c3.Count(nil); n != 3 {
		t.Fatalf("replayed %d docs after recovery append, want 3", n)
	}
	if c3.FindOne(Doc{"seq": 99}) == nil {
		t.Fatal("post-recovery insert lost")
	}
}

// TestJournalReplayMatchesFlush drives an identical randomized op
// sequence into a journaled store (reopened via replay, no Flush) and an
// in-memory store that applies the same operations, and requires
// identical final states. This is the engine's core equivalence
// property.
func TestJournalReplayMatchesFlush(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			jDir := t.TempDir()
			jdb := MustOpen(jDir)
			mdb := MustOpen("")
			apply := func(rng *rand.Rand, c Collection) {
				for i := 0; i < 300; i++ {
					switch op := rng.Intn(10); {
					case op < 6:
						if _, err := c.InsertOne(Doc{"k": rng.Intn(40), "v": rng.Float64()}); err != nil {
							t.Fatal(err)
						}
					case op < 9:
						id := fmt.Sprintf("%s-%d", c.Name(), rng.Intn(200)+1)
						if _, err := c.UpdateOne(Doc{"_id": id}, Doc{"v": rng.Float64(), "touched": true}); err != nil {
							t.Fatal(err)
						}
					default:
						c.DeleteMany(Doc{"k": rng.Intn(40)})
					}
				}
			}
			// Same seed, same decisions, same generated values on both stores.
			apply(rand.New(rand.NewSource(seed)), jdb.Collection("ops"))
			apply(rand.New(rand.NewSource(seed)), mdb.Collection("ops"))
			if err := jdb.Close(); err != nil {
				t.Fatal(err)
			}

			jdb2 := MustOpen(jDir)
			defer jdb2.Close()
			got := normalize(t, docsByID(jdb2.Collection("ops")))
			want := normalize(t, docsByID(mdb.Collection("ops")))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("journal replay and in-memory store diverge:\nreplay:    %d docs\nin-memory: %d docs", len(got), len(want))
			}
			if len(got) == 0 {
				t.Fatal("degenerate sequence: no documents survived")
			}
		})
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWith(dir, Options{CompactAfter: 16})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("runs")
	for i := 0; i < 50; i++ {
		if _, err := c.InsertOne(Doc{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	db.(*DB).compactWG.Wait()
	snap := filepath.Join(dir, "collections", "runs.jsonl")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("compaction wrote no snapshot: %v", err)
	}
	fi, err := os.Stat(journalPath(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	// 50 inserts at CompactAfter=16 means the journal was folded into
	// the snapshot at least twice; at most CompactAfter records remain.
	var remaining int
	if data, err := os.ReadFile(journalPath(dir, "runs")); err == nil {
		for _, b := range data {
			if b == '\n' {
				remaining++
			}
		}
	}
	if remaining >= 50 {
		t.Fatalf("journal still holds %d records (size %d) — compaction never ran", remaining, fi.Size())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := MustOpen(dir)
	defer db2.Close()
	if n := db2.Collection("runs").Count(nil); n != 50 {
		t.Fatalf("snapshot+journal reopen has %d docs, want 50", n)
	}
}

// TestJournalConcurrentMutations hammers one journaled collection from
// many goroutines with a compaction threshold low enough that
// compactions run concurrently with the writes. Run under -race this
// guards the journal/compaction locking.
func TestJournalConcurrentMutations(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWith(dir, Options{CompactAfter: 32})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Collection("runs")
	const workers, each = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := c.InsertOne(Doc{"worker": w, "seq": i})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.UpdateOne(Doc{"_id": id}, Doc{"done": true}); err != nil {
					t.Error(err)
					return
				}
				c.FindOne(Doc{"_id": id})
				c.Count(Doc{"worker": w})
			}
		}()
	}
	wg.Wait()
	if n := c.Count(nil); n != workers*each {
		t.Fatalf("have %d docs, want %d", n, workers*each)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := MustOpen(dir)
	defer db2.Close()
	if n := db2.Collection("runs").Count(Doc{"done": true}); n != workers*each {
		t.Fatalf("reopened store has %d done docs, want %d", n, workers*each)
	}
}

// TestFlushTruncatesJournal: after an explicit Flush the journal is
// empty and the state lives in the snapshot.
func TestFlushTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir)
	c := db.Collection("runs")
	for i := 0; i < 10; i++ {
		if _, err := c.InsertOne(Doc{"seq": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(journalPath(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("journal holds %d bytes after Flush", fi.Size())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := MustOpen(dir)
	defer db2.Close()
	var seqs []int
	for _, d := range db2.Collection("runs").Find(nil) {
		seqs = append(seqs, int(d["seq"].(float64)))
	}
	sort.Ints(seqs)
	if len(seqs) != 10 || seqs[0] != 0 || seqs[9] != 9 {
		t.Fatalf("post-flush reopen: %v", seqs)
	}
}
