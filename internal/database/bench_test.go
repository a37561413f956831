package database

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"gem5art/internal/database/storage"
)

// The store microbenchmarks `make microbench` smoke-runs: the journal
// commit, the batch commit (with its fsync count), a blob archive
// (with its fsync and file-create counts), an index-served
// count against a scan at 10k documents, and the filter matcher every
// read path verifies candidates with.

// syncCountFS counts fsyncs on the files opened through it, and the
// calls that may create a file: opens with O_CREATE and WriteFile.
type syncCountFS struct {
	storage.FS
	syncs   atomic.Int64
	creates atomic.Int64
}

func (fs *syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	if flag&os.O_CREATE != 0 {
		fs.creates.Add(1)
	}
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountFile{f, fs}, nil
}

func (fs *syncCountFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	fs.creates.Add(1)
	return fs.FS.WriteFile(name, data, perm)
}

type syncCountFile struct {
	storage.File
	fs *syncCountFS
}

func (f syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// benchRunDoc is shaped like a gateway run document.
func benchRunDoc(launch, i int) Doc {
	return Doc{
		"job_id":    fmt.Sprintf("gw/bench/l%04d/%d", launch, i),
		"launch_id": fmt.Sprintf("l%04d", launch),
		"index":     i,
		"status":    "queued",
		"params":    map[string]any{"kernel": "5.4.49", "cpu": "O3CPU", "mem": "classic", "cores": 2, "boot": "init"},
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	db := MustOpen(b.TempDir())
	defer db.Close()
	c := db.Collection("runs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.InsertOne(benchRunDoc(0, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertManyJournaled commits a launch's worth of run
// documents per op; fsyncs/op is the batch-commit contract (1).
func BenchmarkInsertManyJournaled(b *testing.B) {
	const batch = 480
	fs := &syncCountFS{FS: storage.OSFS}
	opts := DefaultOptions()
	opts.FS = fs
	opts.CompactAfter = 1 << 30 // time the commit, not the snapshot rewrites of a 96k-document store
	db, err := OpenWith(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	c := db.Collection("runs")
	c.CreateUniqueIndex("job_id")
	c.CreateIndex("launch_id")
	docs := make([]Doc, batch)
	b.ReportAllocs()
	b.ResetTimer()
	fs.syncs.Store(0)
	for i := 0; i < b.N; i++ {
		for j := range docs {
			docs[j] = benchRunDoc(i, j)
		}
		if err := c.InsertMany(docs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/doc")
	b.ReportMetric(float64(fs.syncs.Load())/float64(b.N), "fsyncs/op")
}

// BenchmarkFilePut archives one distinct 2 KiB blob per op on a
// journaled store, the size of a run's stats file. The contract: one
// fsync per new blob (fsyncs/put 1) and no file created after the
// first Put, which opened the pack (creates/put 0).
func BenchmarkFilePut(b *testing.B) {
	fs := &syncCountFS{FS: storage.OSFS}
	opts := DefaultOptions()
	opts.FS = fs
	db, err := OpenWith(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	blob := make([]byte, 2048)
	put := func(i int) {
		binary.LittleEndian.PutUint64(blob, uint64(i))
		if _, err := db.Files().Put("stats.txt", blob); err != nil {
			b.Fatal(err)
		}
	}
	put(-1)
	b.ReportAllocs()
	b.ResetTimer()
	fs.syncs.Store(0)
	fs.creates.Store(0)
	for i := 0; i < b.N; i++ {
		put(i)
	}
	b.ReportMetric(float64(fs.syncs.Load())/float64(b.N), "fsyncs/put")
	b.ReportMetric(float64(fs.creates.Load())/float64(b.N), "creates/put")
}

// tenThousandRuns fills an in-memory collection with 10k run documents
// in launches of 500.
func tenThousandRuns(b *testing.B) Collection {
	c := MustOpen("").Collection("runs")
	for i := 0; i < 10_000; i++ {
		if _, err := c.InsertOne(benchRunDoc(i/500, i%500)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

var benchSink int

func BenchmarkCountBySecondaryIndex(b *testing.B) {
	c := tenThousandRuns(b)
	c.CreateIndex("launch_id")
	filter := Doc{"launch_id": "l0019", "status": "queued"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.Count(filter)
	}
}

func BenchmarkCountByScan(b *testing.B) {
	c := tenThousandRuns(b)
	filter := Doc{"launch_id": "l0019", "status": "queued"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.Count(filter)
	}
}

func BenchmarkMatches(b *testing.B) {
	d := benchRunDoc(19, 7)
	filter := Doc{"launch_id": "l0019", "status": "queued", "index": Doc{"$gte": 5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !storage.Matches(d, filter) {
			b.Fatal("no match")
		}
	}
}
