package database

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// On-disk layout under the database directory:
//
//	<dir>/collections/<name>.jsonl  — snapshot: one JSON document per line
//	<dir>/journal/<name>.wal        — append-only journal since the snapshot
//	<dir>/files/blobs.pack          — append-only blob pack: one framed,
//	                                  fsynced record per stored blob
//	<dir>/files/<hash>.blob, .meta  — legacy per-file blobs (raw or
//	                                  base64) from before the pack; read
//	                                  and scrubbed, never written
//	<dir>/quarantine/               — corrupt blobs set aside by load
//	                                  and Scrub
//
// The formats are line-oriented and human-inspectable, in the spirit
// of gem5art's "freely available tools may be used to process this
// data": a pack frame is a header line with the file's JSON FileMeta
// followed by its raw bytes (see pack.go).
//
// Every write path goes through db.fs() so chaos tests can inject
// disk faults deterministically (faultinject.DiskChaos).

// Flush compacts every collection — snapshot written atomically, then
// the journal truncated. Blobs need no flush: each Put fsynced its pack
// frame. With the journal enabled Flush is never required for
// durability; it is the explicit "fold history into snapshots now"
// operation. A degraded store refuses to flush: the journal is the only
// trustworthy record.
func (db *DB) Flush() error {
	if db.dir == "" {
		return nil
	}
	if err := db.Degraded(); err != nil {
		return err
	}
	for _, c := range db.snapshot() {
		c.mu.Lock()
		err := c.flushLocked()
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// flushLocked snapshots the collection and truncates/removes its
// journal. Caller holds c.mu.
func (c *collection) flushLocked() error {
	// A failed snapshot or journal reset is a durability failure like any
	// other: degrade rather than let the caller believe the fold happened.
	if err := c.writeSnapshotLocked(); err != nil {
		return c.db.degrade("snapshot", err)
	}
	// A collection created since open that no mutation has touched has
	// no journal yet.
	if c.journal != nil {
		if err := c.journal.reset(); err != nil {
			return c.db.degrade("compaction", err)
		}
	}
	return nil
}

// writeSnapshotLocked writes the collection snapshot atomically:
// marshal to a temp file, fsync, rename over the final name. Caller
// holds c.mu.
func (c *collection) writeSnapshotLocked() error {
	fs := c.db.fs()
	dir := filepath.Join(c.db.dir, "collections")
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, d := range c.docs {
		line, err := json.Marshal(d)
		if err != nil {
			return fmt.Errorf("database: marshal doc in %s: %w", c.name, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	final := filepath.Join(dir, c.name+".jsonl")
	tmp := final + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, final)
}

// load restores the database: orphaned tmp files are swept, then
// snapshots, then journal replay on top, then the file store.
func (db *DB) load() error {
	db.sweepTmpFiles()
	names := make(map[string]bool)
	colDir := filepath.Join(db.dir, "collections")
	if entries, err := db.fs().ReadDir(colDir); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".jsonl") {
				names[strings.TrimSuffix(e.Name(), ".jsonl")] = true
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	// A collection may exist only in the journal (created after the
	// last compaction — or never compacted at all).
	if entries, err := db.fs().ReadDir(filepath.Join(db.dir, "journal")); err == nil {
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
				names[strings.TrimSuffix(e.Name(), ".wal")] = true
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for name := range names {
		if err := db.loadCollection(name, filepath.Join(colDir, name+".jsonl")); err != nil {
			return err
		}
	}
	return db.files.load(filepath.Join(db.dir, "files"))
}

// sweepTmpFiles removes orphaned *.tmp files a crash mid-compaction or
// mid-rename stranded in the snapshot, journal, and blob directories.
// The one atomic-rename site, writeSnapshotLocked, publishes via
// "<final>.tmp" → rename, so any surviving .tmp is by construction
// incomplete and must not shadow real state or leak disk forever.
// Stores from before the blob pack also wrote "<hash>.blob.tmp" files
// that way, so files/ is swept too.
func (db *DB) sweepTmpFiles() {
	fs := db.fs()
	for _, sub := range []string{"collections", "journal", "files"} {
		dir := filepath.Join(db.dir, sub)
		entries, err := fs.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
				continue
			}
			_ = fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// loadCollection restores one collection: snapshot lines, then journal
// records, then index rebuild, then (in journal mode) the writer is
// attached positioned after the journal's valid prefix.
func (db *DB) loadCollection(name, snapshotPath string) error {
	c := db.collection(name)
	c.mu.Lock()
	defer c.mu.Unlock()

	if f, err := db.fs().OpenFile(snapshotPath, os.O_RDONLY, 0); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var d Doc
			if err := json.Unmarshal([]byte(line), &d); err != nil {
				f.Close()
				return fmt.Errorf("database: load %s: %w", name, err)
			}
			c.docs = append(c.docs, d)
		}
		err := sc.Err()
		f.Close()
		if err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	c.byID = make(map[string]int, len(c.docs))
	for i, d := range c.docs {
		id := fmt.Sprint(d["_id"])
		c.byID[id] = i
		c.bumpNextID(id)
	}

	walPath := journalPath(db.dir, name)
	recs, goodBytes, err := replayJournal(db.fs(), walPath)
	if err != nil {
		return fmt.Errorf("database: replay %s: %w", name, err)
	}
	for _, rec := range recs {
		c.applyRecordLocked(rec)
	}
	c.rebuildIndexesLocked()
	for _, d := range c.docs {
		c.bumpNextID(fmt.Sprint(d["_id"]))
	}

	w, err := openJournalWriter(db.fs(), walPath, goodBytes, len(recs), db.opts.SyncOnCommit)
	if err != nil {
		return fmt.Errorf("database: journal %s: %w", name, err)
	}
	c.journal = w
	return nil
}

// ensureJournal lazily attaches a journal writer to a collection that
// was created after open (no on-disk state yet). A failure to open the
// journal is a durability failure: the caller degrades the store
// rather than silently running the collection unjournaled. Caller
// holds c.mu.
func (c *collection) ensureJournal() error {
	if c.journal != nil || c.db.dir == "" {
		return nil
	}
	w, err := openJournalWriter(c.db.fs(), journalPath(c.db.dir, c.name), 0, 0, c.db.opts.SyncOnCommit)
	if err != nil {
		return fmt.Errorf("database: journal %s: %w", c.name, err)
	}
	c.journal = w
	return nil
}
