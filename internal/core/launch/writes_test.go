package launch

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/core/run"
	"gem5art/internal/database"
	"gem5art/internal/database/dbtest"
	"gem5art/internal/database/storage"
	"gem5art/internal/simcache"
	"gem5art/internal/telemetry"
)

// recordFS counts what a journaled store writes through it: journal
// records and fsyncs per collection, and the blob pack's writes and
// fsyncs.
type recordFS struct {
	storage.FS
	dir        string // the store's directory
	mu         sync.Mutex
	records    map[string]int // collection -> journal records appended
	syncs      map[string]int // collection -> journal fsyncs
	packWrites int
	packSyncs  int
}

func (fs *recordFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(name, ".wal"):
		return walFile{File: f, fs: fs, col: strings.TrimSuffix(filepath.Base(name), ".wal")}, nil
	case name == dbtest.PackPath(fs.dir):
		return packFile{File: f, fs: fs}, nil
	}
	return f, nil
}

// counts snapshots the records appended to collection col and its
// journal's fsyncs.
func (fs *recordFS) counts(col string) (records, syncs int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.records[col], fs.syncs[col]
}

// blobs snapshots the frames written to the blob pack — each is two
// writes, its header line and then its content — and the pack's
// fsyncs.
func (fs *recordFS) blobs() (frames, syncs int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.packWrites / 2, fs.packSyncs
}

// packFile counts the blob pack's writes and fsyncs.
type packFile struct {
	storage.File
	fs *recordFS
}

func (f packFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.packWrites++
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (f packFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.packSyncs++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// walFile counts journal records — one line each — as they are
// written, and the fsyncs that commit them.
type walFile struct {
	storage.File
	fs  *recordFS
	col string
}

func (f walFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.records[f.col] += bytes.Count(p[:n], []byte{'\n'})
	f.fs.mu.Unlock()
	return n, err
}

func (f walFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs[f.col]++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

// countedStore opens a journaled store (fsync on every commit, the
// default policy) whose writes are counted by the returned recordFS.
func countedStore(t testing.TB) (database.Store, *recordFS) {
	t.Helper()
	fs := &recordFS{FS: storage.OSFS, dir: t.TempDir(), records: map[string]int{}, syncs: map[string]int{}}
	opts := database.DefaultOptions()
	opts.FS = fs
	db, err := database.OpenWith(fs.dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db, fs
}

// hackMatrix is n hack-back specs in one boot class, distinct by tag.
func hackMatrix(base run.FSSpec, n int) []run.FSSpec {
	specs := make([]run.FSSpec, n)
	for i := range specs {
		specs[i] = hackBase(base, fmt.Sprintf("matrix-%d", i), "num_cpus=1", fmt.Sprintf("tag=%d", i))
	}
	return specs
}

// launchCached launches specs in one call through a cached Experiment
// and waits.
func launchCached(t testing.TB, reg *artifact.Registry, cache *simcache.Cache, specs []run.FSSpec) []*run.Run {
	t.Helper()
	e := NewExperiment("matrix", reg, 2)
	defer e.Close()
	e.SetCache(cache)
	runs, err := e.LaunchFS(specs...)
	if err != nil {
		t.Fatal(err)
	}
	e.Wait(context.Background())
	return runs
}

// TestWhatARunWrites pins the launch path's store writes. A cold launch
// of n <= launchBatch distinct specs records its runs with one commit,
// finishes each with one more, and caches n results; the warm relaunch
// records all n runs done with one commit and writes no cache entry and
// no blob. Each distinct archived content costs one pack frame and one
// pack fsync. A longer launch commits once per batch of launchBatch.
func TestWhatARunWrites(t *testing.T) {
	const n = 8
	db, fs := countedStore(t)
	reg, base := buildEnvOn(t, db)
	cache := simcache.New(db, simcache.Options{})
	specs := hackMatrix(base, n)

	runs0, syncs0 := fs.counts(run.Collection)
	results0, _ := fs.counts(simcache.ResultCollection)
	frames0, packSyncs0 := fs.blobs()
	files0 := len(db.Files().List())
	cold := launchCached(t, reg, cache, specs)
	runs1, syncs1 := fs.counts(run.Collection)
	results1, _ := fs.counts(simcache.ResultCollection)
	frames1, packSyncs1 := fs.blobs()
	if got := runs1 - runs0; got != 2*n {
		t.Errorf("cold launch: %d runs records, want %d (created + terminal)", got, 2*n)
	}
	if got := syncs1 - syncs0; got != 1+n {
		t.Errorf("cold launch: %d runs fsyncs, want %d (one created batch + one terminal each)", got, 1+n)
	}
	if got := results1 - results0; got != n {
		t.Errorf("cold launch: %d simcache_results records, want %d", got, n)
	}
	coldStats := cache.Stats()
	if coldStats.Misses != n || coldStats.HitsMemory+coldStats.HitsPersistent != 0 {
		t.Errorf("cold launch cache stats: %+v, want %d misses and no hits", coldStats, n)
	}

	files := len(db.Files().List())
	if archived := files - files0; archived == 0 || frames1-frames0 != archived || packSyncs1-packSyncs0 != archived {
		t.Errorf("cold launch archived %d distinct contents with %d pack frames and %d pack fsyncs, want one of each per content",
			archived, frames1-frames0, packSyncs1-packSyncs0)
	}
	tel := telemetry.Default.Snapshot()
	warm := launchCached(t, reg, cache, specs)
	runs2, syncs2 := fs.counts(run.Collection)
	results2, _ := fs.counts(simcache.ResultCollection)
	frames2, packSyncs2 := fs.blobs()
	if got := runs2 - runs1; got != n {
		t.Errorf("warm relaunch: %d runs records, want %d (one terminal document each)", got, n)
	}
	if got := syncs2 - syncs1; got != 1 {
		t.Errorf("warm relaunch: %d runs fsyncs, want 1", got)
	}
	if got := results2 - results1; got != 0 {
		t.Errorf("warm relaunch: %d simcache_results records, want 0", got)
	}
	if got := frames2 - frames1; got != 0 {
		t.Errorf("warm relaunch wrote %d pack frames, want 0", got)
	}
	if got := packSyncs2 - packSyncs1; got != 0 {
		t.Errorf("warm relaunch made %d pack fsyncs, want 0", got)
	}
	if got := len(db.Files().List()); got != files {
		t.Errorf("warm relaunch grew the file store: %d -> %d entries", files, got)
	}
	warmStats := cache.Stats()
	if hits := warmStats.HitsMemory + warmStats.HitsPersistent; hits != n || warmStats.Misses != n {
		t.Errorf("after warm relaunch cache stats: %+v, want %d hits and %d misses", warmStats, n, n)
	}
	after := telemetry.Default.Snapshot()
	for series, want := range map[string]float64{
		"gem5art_runs_created_total":                  n,
		`gem5art_run_transitions_total{to="done"}`:    n,
		`gem5art_run_transitions_total{to="queued"}`:  0,
		`gem5art_run_transitions_total{to="running"}`: 0,
		`gem5art_tasks_job_duration_seconds_count`:    0,
	} {
		if got := after[series] - tel[series]; got != want {
			t.Errorf("warm relaunch: %s moved by %v, want %v", series, got, want)
		}
	}

	// A replayed run is a hit as the record knows it: done, one done
	// attempt, the cold run's archive.
	col := db.Collection(run.Collection)
	for i := range warm {
		c := col.FindOne(database.Doc{"_id": cold[i].ID})
		w := col.FindOne(database.Doc{"_id": warm[i].ID})
		if w["status"] != "done" || w["cache_hit"] != true {
			t.Fatalf("%s: status %v cache_hit %v", warm[i].Spec.Name, w["status"], w["cache_hit"])
		}
		if atts, _ := w["attempts"].([]any); len(atts) != 1 || atts[0].(map[string]any)["status"] != "done" {
			t.Fatalf("%s: attempts %v", warm[i].Spec.Name, w["attempts"])
		}
		for _, f := range []string{"stats_file", "console_file", "outcome", "insts"} {
			if w[f] != c[f] || w[f] == "" {
				t.Errorf("%s: %s %v, cold run recorded %v", warm[i].Spec.Name, f, w[f], c[f])
			}
		}
	}

	// One spec past the batch cap: the launch commits two created
	// batches. The first n specs are hits; the rest execute.
	long := hackMatrix(base, launchBatch+1)
	executed := len(long) - n
	launchCached(t, reg, cache, long)
	runs3, syncs3 := fs.counts(run.Collection)
	if got := runs3 - runs2; got != len(long)+executed {
		t.Errorf("%d-spec launch: %d runs records, want %d", len(long), got, len(long)+executed)
	}
	if got := syncs3 - syncs2; got != 2+executed {
		t.Errorf("%d-spec launch: %d runs fsyncs, want %d (two created batches + one terminal per executed run)",
			len(long), got, 2+executed)
	}
	launchCached(t, reg, cache, long)
	runs4, syncs4 := fs.counts(run.Collection)
	if got := runs4 - runs3; got != len(long) {
		t.Errorf("%d-spec warm relaunch: %d runs records, want %d", len(long), got, len(long))
	}
	if got := syncs4 - syncs3; got != 2 {
		t.Errorf("%d-spec warm relaunch: %d runs fsyncs, want 2", len(long), got)
	}
}
