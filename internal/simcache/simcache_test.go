package simcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/database"
)

func memDB(t *testing.T) database.Store { return openDB(t, "") }

// openDB opens the store in dir ("" for memory) and closes it when the
// test ends.
func openDB(t *testing.T, dir string) database.Store {
	t.Helper()
	db, err := database.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func TestKeyStableAndOrderInsensitive(t *testing.T) {
	a := KeyInputs{
		Kind:      "fs:configs/run_hackback.py",
		Artifacts: []string{"hash-a", "hash-b", "hash-c"},
		Params:    []string{"num_cpus=4", "benchmark=cg", "suite=npb"},
	}
	b := KeyInputs{
		Kind:      "fs:configs/run_hackback.py",
		Artifacts: []string{"hash-c", "hash-a", "hash-b"},
		Params:    []string{"suite=npb", "num_cpus=4", "benchmark=cg"},
	}
	if a.Key() != b.Key() {
		t.Fatalf("key is order-sensitive: %s vs %s", a.Key(), b.Key())
	}
	if a.Key() != a.Key() {
		t.Fatal("key is not deterministic")
	}
	for _, variant := range []KeyInputs{
		{Kind: "se:configs/run_se.py", Artifacts: a.Artifacts, Params: a.Params},
		{Kind: a.Kind, Artifacts: []string{"hash-a", "hash-b"}, Params: a.Params},
		{Kind: a.Kind, Artifacts: a.Artifacts, Params: []string{"num_cpus=8", "benchmark=cg", "suite=npb"}},
	} {
		if variant.Key() == a.Key() {
			t.Fatalf("variant %+v collides with base key", variant)
		}
	}
	// Sorting must not mutate the caller's slices.
	if a.Artifacts[0] != "hash-a" || a.Params[0] != "num_cpus=4" {
		t.Fatal("Key() mutated its inputs")
	}
}

func TestBootClassKey(t *testing.T) {
	base := BootClass{KernelHash: "k1", DiskHash: "d1", Cores: 2, Mem: "classic"}
	for _, variant := range []BootClass{
		{KernelHash: "k2", DiskHash: "d1", Cores: 2, Mem: "classic"},
		{KernelHash: "k1", DiskHash: "d2", Cores: 2, Mem: "classic"},
		{KernelHash: "k1", DiskHash: "d1", Cores: 4, Mem: "classic"},
		{KernelHash: "k1", DiskHash: "d1", Cores: 2, Mem: "ruby.MI_example"},
	} {
		if variant.Key() == base.Key() {
			t.Fatalf("boot class %+v collides with base", variant)
		}
	}
	if base.Key() != base.Key() {
		t.Fatal("boot-class key is not deterministic")
	}
}

func TestLookupStoreAndPersistentPromotion(t *testing.T) {
	db := memDB(t)
	c1 := New(db, Options{})
	if _, ok := c1.Lookup("k"); ok {
		t.Fatal("lookup hit on empty cache")
	}
	c1.Store("k", database.Doc{"Outcome": "success", "Insts": float64(42)})
	if d, ok := c1.Lookup("k"); !ok || d["Outcome"] != "success" {
		t.Fatalf("memory-tier lookup failed: %v %v", d, ok)
	}
	if st := c1.Stats(); st.HitsMemory != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats after memory hit: %+v", st)
	}

	// A second cache over the same store has a cold memory tier: the hit
	// must come from the persistent tier and promote into memory.
	c2 := New(db, Options{})
	d, ok := c2.Lookup("k")
	if !ok || d["Outcome"] != "success" {
		t.Fatalf("persistent-tier lookup failed: %v %v", d, ok)
	}
	if st := c2.Stats(); st.HitsPersistent != 1 {
		t.Fatalf("stats after persistent hit: %+v", st)
	}
	if _, ok := c2.Lookup("k"); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	if st := c2.Stats(); st.HitsMemory != 1 {
		t.Fatalf("promotion did not serve from memory: %+v", st)
	}
}

// TestPersistentHitReusesRecordedSize checks that a persistent hit
// charges the memory tier the size Store recorded, on a store reopened
// from disk too, and that a document without one is sized afresh.
func TestPersistentHitReusesRecordedSize(t *testing.T) {
	result := database.Doc{"Outcome": "success", "Stats": map[string]any{"ipc": 1.25, "insts": float64(7)}}
	dir := t.TempDir()
	db, err := database.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{})
	c.Store("k", result)
	want := c.Stats().MemoryBytes
	if want != int64(docSize(result)) {
		t.Fatalf("Store charged %d bytes, docSize says %d", want, docSize(result))
	}
	_ = db.Close()

	db = openDB(t, dir)
	fresh := New(db, Options{})
	if _, ok := fresh.Lookup("k"); !ok {
		t.Fatal("persistent lookup missed")
	}
	if got := fresh.Stats().MemoryBytes; got != want {
		t.Fatalf("persistent hit charged %d bytes, Store %d", got, want)
	}

	// A result document without a recorded size.
	col := db.Collection(ResultCollection)
	if _, err := col.InsertOne(database.Doc{"_id": "unsized", "salt": SimVersionSalt,
		"result": result}); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Lookup("unsized"); !ok {
		t.Fatal("lookup of unsized document missed")
	}
	if got := fresh.Stats().MemoryBytes; got != 2*want {
		t.Fatalf("unsized hit: memory tier holds %d bytes, want %d", got, 2*want)
	}
}

func TestLookupReturnsDeepCopies(t *testing.T) {
	c := New(memDB(t), Options{})
	c.Store("k", database.Doc{"Stats": map[string]any{"ipc": 1.5}})
	d1, _ := c.Lookup("k")
	d1["Stats"].(map[string]any)["ipc"] = 99.0
	d2, _ := c.Lookup("k")
	if got := d2["Stats"].(map[string]any)["ipc"]; got != 1.5 {
		t.Fatalf("cached entry aliased by caller mutation: ipc=%v", got)
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	c := New(memDB(t), Options{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Store(fmt.Sprintf("k%d", i), database.Doc{"i": float64(i)})
	}
	c.Lookup("k0") // refresh k0: k1 is now the LRU entry
	c.Store("k3", database.Doc{"i": float64(3)})
	c.mu.Lock()
	_, has0 := c.items["k0"]
	_, has1 := c.items["k1"]
	c.mu.Unlock()
	if !has0 || has1 {
		t.Fatalf("LRU eviction wrong: k0=%v k1=%v", has0, has1)
	}
	if st := c.Stats(); st.Evictions != 1 || st.MemoryEntries != 3 {
		t.Fatalf("eviction stats: %+v", st)
	}
	// The evicted entry must still hit through the persistent tier.
	if _, ok := c.Lookup("k1"); !ok {
		t.Fatal("evicted entry lost from persistent tier")
	}
}

func TestEvictionByBytes(t *testing.T) {
	c := New(memDB(t), Options{MaxBytes: 100})
	big := make([]any, 0, 30)
	for i := 0; i < 30; i++ {
		big = append(big, float64(i))
	}
	c.Store("big1", database.Doc{"v": big})
	c.Store("big2", database.Doc{"v": big})
	c.Store("big3", database.Doc{"v": big})
	st := c.Stats()
	if st.MemoryBytes > 100 && st.MemoryEntries > 1 {
		t.Fatalf("byte bound not enforced: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no byte evictions recorded: %+v", st)
	}
}

func TestSaltSweepInvalidatesPersistedEntries(t *testing.T) {
	db := memDB(t)
	c1 := New(db, Options{})
	c1.Store("fresh", database.Doc{"v": float64(1)})
	// Entries a simulator with other semantics minted.
	if _, err := db.Collection(ResultCollection).InsertOne(database.Doc{
		"_id": "stale", "salt": "sim-v0", "result": map[string]any{"v": float64(0)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Collection(CheckpointCollection).InsertOne(database.Doc{
		"_id": "stale-class", "salt": "sim-v0", "blob_hash": "h"}); err != nil {
		t.Fatal(err)
	}

	// Opening the cache sweeps entries minted under another salt.
	c2 := New(db, Options{})
	if n := db.Collection(ResultCollection).Count(nil); n != 1 {
		t.Fatalf("%d results after the sweep, want the fresh one", n)
	}
	if n := db.Collection(CheckpointCollection).Count(nil); n != 0 {
		t.Fatalf("stale-salt checkpoint survived the sweep: %d", n)
	}
	if st := c2.Stats(); st.Evictions != 2 {
		t.Fatalf("sweep evictions: %+v", st)
	}
	if _, ok := c2.Lookup("fresh"); !ok {
		t.Fatal("current-salt result swept")
	}
}

func TestInvalidate(t *testing.T) {
	db := memDB(t)
	c := New(db, Options{})
	c.Store("k", database.Doc{"v": float64(1)})
	c.Invalidate("k")
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("invalidated key still hits")
	}
	if n := db.Collection(ResultCollection).Count(nil); n != 0 {
		t.Fatal("invalidated key survived in persistent tier")
	}
}

// TestGetOrComputeSingleflight is the concurrent duplicate-run dedup
// test: M goroutines request the same key, exactly one computation
// executes, and every observer gets its own deep copy (mutating one
// observer's result must not leak into another's). Run under -race.
func TestGetOrComputeSingleflight(t *testing.T) {
	const M = 32
	c := New(memDB(t), Options{})
	var executions atomic.Int64
	gate := make(chan struct{})
	results := make([]database.Doc, M)
	var wg sync.WaitGroup
	for i := 0; i < M; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			doc, _, err := c.GetOrCompute("shared-key", func() (database.Doc, error) {
				executions.Add(1)
				time.Sleep(20 * time.Millisecond) // let waiters pile up
				return database.Doc{
					"Outcome": "success",
					"Stats":   map[string]any{"ipc": 1.25},
				}, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			// Scribble over the private copy; no other observer may see it.
			doc["Outcome"] = fmt.Sprintf("scribble-%d", i)
			doc["Stats"].(map[string]any)["ipc"] = float64(i)
			results[i] = doc
		}()
	}
	close(gate)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Fatalf("%d executions for one key, want exactly 1", n)
	}
	for i, d := range results {
		if d == nil {
			t.Fatalf("goroutine %d got no result", i)
		}
		if got := d["Outcome"]; got != fmt.Sprintf("scribble-%d", i) {
			t.Fatalf("goroutine %d sees another observer's mutation: %v", i, got)
		}
	}
	canon, ok := c.Lookup("shared-key")
	if !ok || canon["Outcome"] != "success" || canon["Stats"].(map[string]any)["ipc"] != 1.25 {
		t.Fatalf("cached canonical result was aliased: %v", canon)
	}
	st := c.Stats()
	if st.Dedups != M-1 {
		t.Fatalf("dedups = %d, want %d", st.Dedups, M-1)
	}
}

func TestGetOrComputeDoesNotCacheErrors(t *testing.T) {
	c := New(memDB(t), Options{})
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute("k", func() (database.Doc, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	doc, cached, err := c.GetOrCompute("k", func() (database.Doc, error) {
		return database.Doc{"v": float64(1)}, nil
	})
	if err != nil || cached || doc["v"] != float64(1) {
		t.Fatalf("retry after error: doc=%v cached=%v err=%v", doc, cached, err)
	}
}

func TestGetOrComputeHitsPersistentTier(t *testing.T) {
	db := memDB(t)
	New(db, Options{}).Store("k", database.Doc{"v": float64(7)})
	c := New(db, Options{})
	doc, cached, err := c.GetOrCompute("k", func() (database.Doc, error) {
		t.Fatal("computed despite persistent hit")
		return nil, nil
	})
	if err != nil || !cached || doc["v"] != float64(7) {
		t.Fatalf("doc=%v cached=%v err=%v", doc, cached, err)
	}
}

// TestProbeThenComputeCountsOnce: a probe that misses and falls back to
// GetOrCompute counts one miss, and a probe that hits counts one hit,
// from either tier.
func TestProbeThenComputeCountsOnce(t *testing.T) {
	db := memDB(t)
	c := New(db, Options{})
	if _, ok := c.Probe("k"); ok {
		t.Fatal("probe hit on empty cache")
	}
	if st := c.Stats(); st.Misses != 0 {
		t.Fatalf("probe counted a miss: %+v", st)
	}
	if _, _, err := c.GetOrCompute("k", func() (database.Doc, error) {
		return database.Doc{"v": float64(1)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if d, ok := c.Probe("k"); !ok || d["v"] != float64(1) {
		t.Fatalf("probe after store: %v %v", d, ok)
	}
	if st := c.Stats(); st.Misses != 1 || st.HitsMemory != 1 {
		t.Fatalf("stats: %+v, want 1 miss and 1 memory hit", st)
	}
	fresh := New(db, Options{})
	if _, ok := fresh.Probe("k"); !ok {
		t.Fatal("probe missed the persistent tier")
	}
	if st := fresh.Stats(); st.HitsPersistent != 1 || st.Misses != 0 {
		t.Fatalf("stats: %+v, want 1 persistent hit", st)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := New(memDB(t), Options{})
	class := BootClass{KernelHash: "kern", DiskHash: "disk", Cores: 2, Mem: "classic"}
	blob := []byte("G5CK fake checkpoint payload")
	hash, _ := c.PutCheckpoint(class, "cpt.1", blob)
	got, gotHash, err := c.Checkpoint(class)
	if err != nil || gotHash != hash || string(got) != string(blob) {
		t.Fatalf("checkpoint round trip: %q %s %v", got, gotHash, err)
	}
	byHash, err := c.CheckpointByHash(hash)
	if err != nil || string(byHash) != string(blob) {
		t.Fatalf("by-hash fetch: %q %v", byHash, err)
	}
	if _, _, err := c.Checkpoint(BootClass{KernelHash: "other", DiskHash: "disk", Cores: 2, Mem: "classic"}); err == nil {
		t.Fatal("unknown class returned a checkpoint")
	}
	st := c.Stats()
	if st.CheckpointHits != 1 || st.CheckpointMisses != 1 {
		t.Fatalf("checkpoint stats: %+v", st)
	}
}

// corruptStore wraps a Store with a FileStore that flips a byte of
// every blob it serves — the engine's own at-rest verification cannot
// be fooled through the public API, so this simulates corruption in
// flight (a truncated read, a bad NFS mount, a flaky fetch).
type corruptStore struct {
	database.Store
	armed *bool
}

func (s corruptStore) Files() database.FileStore {
	return corruptFiles{FileStore: s.Store.Files(), armed: s.armed}
}

type corruptFiles struct {
	database.FileStore
	armed *bool
}

func (f corruptFiles) Get(hash string) ([]byte, error) {
	blob, err := f.FileStore.Get(hash)
	if err != nil || !*f.armed || len(blob) == 0 {
		return blob, err
	}
	blob[0] ^= 0xff
	return blob, nil
}

// TestCheckpointIntegrityFailure serves a corrupted blob and verifies
// the restore fails — and that the poisoned class entry is dropped so
// the next BootOnce re-boots instead of re-reading bad bytes.
func TestCheckpointIntegrityFailure(t *testing.T) {
	armed := false
	db := corruptStore{Store: memDB(t), armed: &armed}
	c := New(db, Options{})
	class := BootClass{KernelHash: "kern", DiskHash: "disk", Cores: 1, Mem: "classic"}
	c.PutCheckpoint(class, "cpt.1", []byte("checkpoint-bytes-that-will-be-corrupted"))

	armed = true
	if _, _, err := c.Checkpoint(class); err == nil {
		t.Fatal("corrupted checkpoint passed integrity verification")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt counter: %+v", st)
	}
	if n := db.Collection(CheckpointCollection).Count(nil); n != 0 {
		t.Fatal("poisoned class document not dropped")
	}
	// The class is clean again: BootOnce must fall back to a fresh boot.
	armed = false
	fresh := []byte("freshly-booted-checkpoint")
	got, _, shared, err := c.BootOnce(class, "cpt.1", func() ([]byte, error) { return fresh, nil })
	if err != nil || shared || string(got) != string(fresh) {
		t.Fatalf("fallback boot: %q shared=%v err=%v", got, shared, err)
	}
}

func TestBootOnceSharesOneBoot(t *testing.T) {
	const M = 16
	c := New(memDB(t), Options{})
	class := BootClass{KernelHash: "kern", DiskHash: "disk", Cores: 4, Mem: "classic"}
	var boots atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < M; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			blob, _, shared, err := c.BootOnce(class, "cpt.1", func() ([]byte, error) {
				boots.Add(1)
				time.Sleep(20 * time.Millisecond)
				return []byte("the-one-boot"), nil
			})
			if err != nil || string(blob) != "the-one-boot" {
				t.Errorf("blob=%q err=%v", blob, err)
			}
			if shared {
				sharedCount.Add(1)
			}
			// Blobs are private copies: scribbling must not corrupt others.
			blob[0] = 'X'
		}()
	}
	close(gate)
	wg.Wait()
	if n := boots.Load(); n != 1 {
		t.Fatalf("%d boots for one class, want exactly 1", n)
	}
	if n := sharedCount.Load(); n != M-1 {
		t.Fatalf("sharedCount = %d, want %d", n, M-1)
	}
	// A later caller restores the archived checkpoint, not a boot.
	blob, _, shared, err := c.BootOnce(class, "cpt.1", func() ([]byte, error) {
		t.Fatal("re-booted an archived class")
		return nil, nil
	})
	if err != nil || !shared || string(blob) != "the-one-boot" {
		t.Fatalf("archived restore: %q shared=%v err=%v", blob, shared, err)
	}
	if st := c.Stats(); st.Boots != 1 || st.BootsShared != int64(M) {
		t.Fatalf("boot stats: %+v", st)
	}
}

func TestBootOnceErrorNotArchived(t *testing.T) {
	c := New(memDB(t), Options{})
	class := BootClass{KernelHash: "kern", DiskHash: "disk", Cores: 1, Mem: "classic"}
	boom := errors.New("boot failed")
	if _, _, _, err := c.BootOnce(class, "cpt.1", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	blob, _, shared, err := c.BootOnce(class, "cpt.1", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(blob) != "ok" {
		t.Fatalf("retry after failed boot: %q shared=%v err=%v", blob, shared, err)
	}
}
