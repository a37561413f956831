package database

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"gem5art/internal/database/storage"
)

// The append-only journal is the engine's default durability path:
// instead of rewriting every collection file on Flush (O(total docs)
// per flush — unusable for a 10k-run sweep), each committed mutation
// appends one record to <dir>/journal/<collection>.wal and fsyncs
// (InsertMany appends its whole batch under one fsync).
// Startup replays the journal on top of the last snapshot; background
// compaction folds a grown journal into a fresh snapshot and truncates
// it.
//
// Record framing: one line per record, "crc32(payload-hex) payload\n"
// with a JSON payload. Replay stops at the first incomplete or
// corrupt line (a crash mid-append) and truncates the file back to the
// last good record, so a torn tail never poisons later appends.
//
// Records describe resolved effects, not queries: inserts carry the
// full document (with its assigned _id), updates carry the target _id
// plus the merged fields, deletes carry the removed _ids. Replay is
// therefore deterministic and idempotent — an insert re-applied after
// a crash between compaction's snapshot rename and journal truncation
// simply overwrites the same document.
//
// Commits are fail-fast: the journal record is appended and fsynced
// BEFORE the in-memory mutation is applied. A write or sync error
// fails the committing operation with *storage.DegradedError and flips
// the whole store read-only — a mutation is never acknowledged unless
// its record reached the journal under the configured durability.

// Journal operation kinds.
const (
	opInsert = "insert"
	opUpdate = "update"
	opDelete = "delete"
)

// journalRecord is one journal entry.
type journalRecord struct {
	Op  string   `json:"op"`
	Doc Doc      `json:"doc,omitempty"` // insert: the full document
	ID  string   `json:"id,omitempty"`  // update: target _id
	Set Doc      `json:"set,omitempty"` // update: merged fields
	IDs []string `json:"ids,omitempty"` // delete: removed _ids
}

// journalWriter appends framed records to one collection's journal
// file. It is guarded by the owning collection's mutex, which also
// makes journal order identical to apply order.
type journalWriter struct {
	f    storage.File
	path string
	sync bool
	recs int    // records appended since the last reset/replay
	size int64  // current file size in bytes
	gen  uint64 // bumped on every reset; replication readers and scrub carry it
}

// journalPath returns the wal path for a collection name.
func journalPath(dir, name string) string {
	return filepath.Join(dir, "journal", name+".wal")
}

// openJournalWriter opens (creating if needed) the journal for
// appending, positioned after goodBytes — the replay-validated prefix.
func openJournalWriter(fs storage.FS, path string, goodBytes int64, recs int, syncOnCommit bool) (*journalWriter, error) {
	f, err := openAppend(fs, path, goodBytes)
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f, path: path, sync: syncOnCommit, recs: recs, size: goodBytes}, nil
}

// openAppend opens (creating if needed) an append-only file — a
// journal or the blob pack — for reading and appending, positioned
// after goodBytes, its replay-validated prefix. Anything past it is a
// torn tail and is cut off.
func openAppend(fs storage.FS, path string, goodBytes int64) (storage.File, error) {
	if err := fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodBytes); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodBytes, 0); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// append frames the records and commits them together: one write and
// (optionally) one fsync however many records there are. On failure it
// reports which durability step broke ("journal-append" or
// "journal-sync") and best-effort truncates the file back to the last
// acknowledged record, so no record of an unacknowledged batch — nor a
// short-write tail — replays after a reopen. Each record carries its
// own CRC frame, so a crash mid-write leaves a valid prefix of the
// batch, as it would after that many single appends.
func (w *journalWriter) append(recs ...journalRecord) (reason string, err error) {
	var buf []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			return "journal-append", fmt.Errorf("database: journal %s: marshal: %w", w.path, err)
		}
		buf = fmt.Appendf(buf, "%08x ", crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
		buf = append(buf, '\n')
	}
	if _, err := w.f.Write(buf); err != nil {
		w.rewind()
		return "journal-append", fmt.Errorf("database: journal %s: %w", w.path, err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			w.rewind()
			return "journal-sync", fmt.Errorf("database: journal %s: sync: %w", w.path, err)
		}
	}
	w.recs += len(recs)
	w.size += int64(len(buf))
	return "", nil
}

// rewind best-effort truncates the journal back to the last
// acknowledged record after a failed append.
func (w *journalWriter) rewind() { rewind(w.f, w.size) }

// rewind best-effort truncates an append-only file back to its last
// acknowledged byte after a failed append, so the unacknowledged bytes
// cannot replay after a reopen. If the truncate itself fails the store
// is degraded anyway and startup replay's CRC framing is the backstop.
func rewind(f storage.File, size int64) {
	_ = f.Truncate(size)
	_, _ = f.Seek(size, 0)
}

// reset truncates the journal after a compaction folded its records
// into a snapshot. The generation bump invalidates every byte offset a
// replication reader holds: even if the journal regrows past a reader's
// old offset, JournalSegment sees the stale generation and forces a
// snapshot resync instead of serving mid-record bytes.
func (w *journalWriter) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.recs = 0
	w.size = 0
	w.gen++
	return nil
}

// close syncs and closes the journal.
func (w *journalWriter) close() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// replayJournal parses the journal at path, returning every valid
// record and the byte length of the valid prefix. A missing file is an
// empty journal. Parsing stops — without error — at the first torn or
// corrupt line, implementing crash recovery by prefix truncation.
func replayJournal(fs storage.FS, path string) (recs []journalRecord, goodBytes int64, err error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail: record written without its newline
		}
		rec, ok := decodeJournalLine(data[:nl])
		if !ok {
			break // corrupt or half-written record
		}
		recs = append(recs, rec)
		goodBytes += int64(nl + 1)
		data = data[nl+1:]
	}
	return recs, goodBytes, nil
}

// decodeJournalLine validates one framed line — the same CRC frame
// check scrub makes — and decodes its payload.
func decodeJournalLine(line []byte) (journalRecord, bool) {
	var rec journalRecord
	if !validJournalFrame(line) {
		return rec, false
	}
	if err := json.Unmarshal(line[9:], &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// logRecord journals one mutation — or one batch of inserts, as a
// single commit — BEFORE the caller applies it to memory, and schedules
// compaction when the journal has outgrown its usefulness. A journal
// failure degrades the store and is returned as *storage.DegradedError:
// the caller must not apply any of the records. Caller holds c.mu.
func (c *collection) logRecord(recs ...journalRecord) error {
	if c.journal == nil {
		if err := c.ensureJournal(); err != nil {
			return c.db.degrade("journal-open", err)
		}
		if c.journal == nil {
			return nil // in-memory store
		}
	}
	if reason, err := c.journal.append(recs...); err != nil {
		return c.db.degrade(reason, err)
	}
	c.maybeCompactLocked()
	return nil
}

// maybeCompactLocked starts a background compaction when the journal
// holds at least CompactAfter records, or earlier when it dwarfs the
// live document count (update/delete-heavy histories replay slowly for
// no benefit). Caller holds c.mu.
func (c *collection) maybeCompactLocked() {
	if c.journal == nil || c.compacting {
		return
	}
	r := c.journal.recs
	if r < c.db.opts.CompactAfter && !(r >= 1024 && r >= 8*len(c.docs)) {
		return
	}
	c.compacting = true
	c.db.compactWG.Add(1)
	go func() {
		defer c.db.compactWG.Done()
		c.compact()
	}()
}

// compact folds the journal into a fresh snapshot: write the snapshot
// atomically (tmp + rename), then truncate the journal. A crash
// between the two re-applies the journal onto the new snapshot at the
// next open — harmless, because replay is idempotent. A disk failure
// in either step degrades the store: the journal still holds the
// records the snapshot may be missing, so reads stay correct, but no
// further mutations are accepted.
func (c *collection) compact() {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { c.compacting = false }()
	if c.journal == nil { // closed while the compaction was queued
		return
	}
	if err := c.writeSnapshotLocked(); err != nil {
		c.db.degrade("compaction", err)
		return
	}
	if err := c.journal.reset(); err != nil {
		c.db.degrade("compaction", err)
		return
	}
	dbCompactions.With(c.name).Inc()
}

// applyRecordLocked replays one journal record into memory. Replay
// maintains byID incrementally (inserts are upserts by _id); declared
// indexes are rebuilt once after the full replay. Caller holds c.mu.
func (c *collection) applyRecordLocked(rec journalRecord) {
	switch rec.Op {
	case opInsert:
		if rec.Doc == nil {
			return
		}
		id := fmt.Sprint(rec.Doc["_id"])
		if pos, ok := c.byID[id]; ok {
			c.docs[pos] = rec.Doc
		} else {
			c.docs = append(c.docs, rec.Doc)
			c.byID[id] = len(c.docs) - 1
		}
		c.bumpNextID(id)
	case opUpdate:
		pos, ok := c.byID[rec.ID]
		if !ok {
			return
		}
		for k, v := range rec.Set {
			if k != "_id" {
				c.docs[pos][k] = v
			}
		}
	case opDelete:
		dead := make(map[string]bool, len(rec.IDs))
		for _, id := range rec.IDs {
			dead[id] = true
		}
		kept := c.docs[:0]
		for _, d := range c.docs {
			if !dead[fmt.Sprint(d["_id"])] {
				kept = append(kept, d)
			}
		}
		for i := len(kept); i < len(c.docs); i++ {
			c.docs[i] = nil
		}
		c.docs = kept
		c.byID = make(map[string]int, len(c.docs))
		for i, d := range c.docs {
			c.byID[fmt.Sprint(d["_id"])] = i
		}
	}
}
