// Package dbtest damages a persistent store's blob pack on disk, for
// tests of load-time quarantine and scrub, and counts the journal
// writes a store makes, for tests that pin them.
package dbtest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gem5art/internal/database/storage"
)

// PackPath is the blob pack of the store in dir.
func PackPath(dir string) string { return filepath.Join(dir, "files", "blobs.pack") }

// RotBlob flips every byte of the last copy of content in the store's
// pack, in place, so the frame that holds it keeps its length and
// framing but fails its CRC and content hash — bit rot, as load and
// Scrub meet it. content must occur nowhere later in the pack. The
// write goes to the same file an open store holds.
func RotBlob(t testing.TB, dir string, content []byte) {
	t.Helper()
	if len(content) == 0 {
		t.Fatal("dbtest: empty content: nothing to rot")
	}
	data, err := os.ReadFile(PackPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.LastIndex(data, content)
	if off < 0 {
		t.Fatalf("dbtest: the pack does not hold %q", content)
	}
	b := bytes.Clone(content)
	for i := range b {
		b[i] ^= 0xff
	}
	f, err := os.OpenFile(PackPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, int64(off)); err != nil {
		t.Fatal(err)
	}
}

// JournalFS counts what a store writes to its collection journals
// through it: the records appended, one line each, and the fsyncs that
// commit them, per collection.
type JournalFS struct {
	storage.FS
	mu      sync.Mutex
	records map[string]int // collection -> journal records appended
	syncs   map[string]int // collection -> journal fsyncs
}

// NewJournalFS counts the journal writes made through fs.
func NewJournalFS(fs storage.FS) *JournalFS {
	return &JournalFS{FS: fs, records: map[string]int{}, syncs: map[string]int{}}
}

// OpenFile opens name, counting the writes and fsyncs of a collection
// journal.
func (fs *JournalFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".wal") {
		return walFile{File: f, fs: fs, col: strings.TrimSuffix(filepath.Base(name), ".wal")}, nil
	}
	return f, nil
}

// Counts snapshots the records appended to collection col and its
// journal's fsyncs.
func (fs *JournalFS) Counts(col string) (records, syncs int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.records[col], fs.syncs[col]
}

// walFile counts one collection journal's records as they are written,
// and the fsyncs that commit them.
type walFile struct {
	storage.File
	fs  *JournalFS
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
