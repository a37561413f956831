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
	"gem5art/internal/database/storage"
	"gem5art/internal/simcache"
	"gem5art/internal/telemetry"
)

// recordFS counts what a journaled store writes through it: journal
// records per collection and content blobs.
type recordFS struct {
	storage.FS
	mu      sync.Mutex
	records map[string]int // collection -> journal records appended
	blobs   int
}

func (fs *recordFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(name, ".wal"):
		return walFile{File: f, fs: fs, col: strings.TrimSuffix(filepath.Base(name), ".wal")}, nil
	case strings.HasSuffix(name, ".blob.tmp"):
		fs.mu.Lock()
		fs.blobs++
		fs.mu.Unlock()
	}
	return f, nil
}

// counts snapshots the records appended to collection col and the
// blobs written so far.
func (fs *recordFS) counts(col string) (records, blobs int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.records[col], fs.blobs
}

// walFile counts journal records — one line each — as they are written.
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

// countedStore opens a journaled store (fsync on every commit, the
// default policy) whose writes are counted by the returned recordFS.
func countedStore(t testing.TB) (database.Store, *recordFS) {
	t.Helper()
	fs := &recordFS{FS: storage.OSFS, records: map[string]int{}}
	opts := database.DefaultOptions()
	opts.FS = fs
	db, err := database.OpenWith(t.TempDir(), opts)
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

// launchCached launches specs through a cached Experiment and waits.
func launchCached(t testing.TB, reg *artifact.Registry, cache *simcache.Cache, specs []run.FSSpec) []*run.Run {
	t.Helper()
	e := NewExperiment("matrix", reg, 2)
	defer e.Close()
	e.SetCache(cache)
	for _, spec := range specs {
		if _, err := e.LaunchFS(spec); err != nil {
			t.Fatal(err)
		}
	}
	e.Wait(context.Background())
	return e.Runs()
}

// TestWhatARunWrites pins the launch path's store writes. A cold launch
// of N distinct specs commits each run twice (created, terminal) and
// caches N results; the warm relaunch commits each run once, the
// terminal document, and writes no cache entry and no blob.
func TestWhatARunWrites(t *testing.T) {
	const n = 8
	db, fs := countedStore(t)
	reg, base := buildEnvOn(t, db)
	cache := simcache.New(db, simcache.Options{})
	specs := hackMatrix(base, n)

	runs0, _ := fs.counts(run.Collection)
	results0, _ := fs.counts(simcache.ResultCollection)
	cold := launchCached(t, reg, cache, specs)
	runs1, blobs1 := fs.counts(run.Collection)
	results1, _ := fs.counts(simcache.ResultCollection)
	if got := runs1 - runs0; got != 2*n {
		t.Errorf("cold launch: %d runs records, want %d (created + terminal)", got, 2*n)
	}
	if got := results1 - results0; got != n {
		t.Errorf("cold launch: %d simcache_results records, want %d", got, n)
	}
	coldStats := cache.Stats()
	if coldStats.Misses != n || coldStats.HitsMemory+coldStats.HitsPersistent != 0 {
		t.Errorf("cold launch cache stats: %+v, want %d misses and no hits", coldStats, n)
	}

	files := len(db.Files().List())
	tel := telemetry.Default.Snapshot()
	warm := launchCached(t, reg, cache, specs)
	runs2, blobs2 := fs.counts(run.Collection)
	results2, _ := fs.counts(simcache.ResultCollection)
	if got := runs2 - runs1; got != n {
		t.Errorf("warm relaunch: %d runs records, want %d (one terminal commit each)", got, n)
	}
	if got := results2 - results1; got != 0 {
		t.Errorf("warm relaunch: %d simcache_results records, want 0", got)
	}
	if got := blobs2 - blobs1; got != 0 {
		t.Errorf("warm relaunch wrote %d blobs, want 0", got)
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
}
