package database

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"gem5art/internal/database/storage"
)

// Replication hooks: the journal that makes a collection crash-safe
// (journal.go) doubles as a replication log. A primary exposes its
// framed journal bytes through JournalSegment; a standby applies them
// with ApplyJournalSegment, which journals each record locally so the
// replica is itself durable and a broker can recover from it after a
// promotion. CollectionSnapshot/RestoreCollection are the full-resync
// path for when the incremental stream is unusable — first contact, or
// a primary whose journal was reset by compaction.
//
// The contract is byte-offset based and torn-tail tolerant: a segment
// that ends mid-record (a crash or a chaotic network tearing the
// shipment) applies its valid prefix and reports how many bytes were
// consumed; the shipper resumes from that offset, so a torn shipment
// never diverges the replica — it only delays it.

// ErrJournalReset reports that the journal was reset (compaction, Flush,
// or RestoreCollection) since the reader's last segment — the reader's
// generation is stale, so its byte offset no longer names a record
// boundary even if the journal has regrown past it. Incremental shipping
// cannot resume; the reader must fall back to a full snapshot resync.
var ErrJournalReset = errors.New("database: journal reset since last segment; full resync required")

// ErrNotJournaled reports that the collection has no journal to ship —
// the store is in-memory.
var ErrNotJournaled = errors.New("database: collection is not journaled")

// JournalSegment returns up to max bytes (0 = 1 MiB) of the named
// collection's journal starting at byte offset from, together with the
// offset the next read should start at. An empty segment with
// next == from means the reader is caught up. The read is taken under
// the collection lock, so the returned bytes are a stable prefix of
// whole appended records — any tearing a transport adds downstream is
// the receiver's torn-tail path, not ours.
//
// gen is the journal generation the reader's offset is relative to,
// obtained from CollectionSnapshot. Every journal reset bumps the
// generation, so a stale gen returns ErrJournalReset even when the
// journal has regrown to or past from — offsets from a previous
// generation land mid-record and must never be served. (The counter is
// per-open, not persisted: a reader never outlives the *DB it reads
// from, which holds in-process; a networked reader must resync after a
// primary restart.)
func (db *DB) JournalSegment(collection string, gen uint64, from int64, max int) (data []byte, next int64, err error) {
	if max <= 0 {
		max = 1 << 20
	}
	c := db.collection(collection)
	c.mu.Lock()
	defer c.mu.Unlock()
	var size int64
	var curGen uint64
	if c.journal != nil {
		size = c.journal.size
		curGen = c.journal.gen
	} else if db.dir == "" {
		return nil, from, ErrNotJournaled
	}
	if gen != curGen || from > size {
		return nil, from, ErrJournalReset
	}
	if from == size {
		return nil, from, nil
	}
	f, err := db.fs().OpenFile(journalPath(db.dir, collection), os.O_RDONLY, 0)
	if err != nil {
		return nil, from, fmt.Errorf("database: journal segment %s: %w", collection, err)
	}
	defer f.Close()
	n := size - from
	if n > int64(max) {
		n = int64(max)
	}
	data = make([]byte, n)
	read, err := f.ReadAt(data, from)
	if err != nil && err != io.EOF {
		return nil, from, fmt.Errorf("database: journal segment %s: %w", collection, err)
	}
	data = data[:read]
	return data, from + int64(read), nil
}

// JournalSize reports the named collection's current journal extent in
// bytes — the replication shipper's lag baseline.
func (db *DB) JournalSize(collection string) int64 {
	c := db.collection(collection)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return 0
	}
	return c.journal.size
}

// ApplyJournalSegment decodes the framed records in data and applies
// them to the named collection, journaling each locally. It returns the
// number of records applied and the byte length of the valid prefix
// consumed. A segment ending in a torn or corrupt record is not an
// error: the valid prefix is applied and consumed reports where the
// next shipment must resume — truncate-and-resync, the same recovery
// startup replay uses for a crash mid-append.
func (db *DB) ApplyJournalSegment(collection string, data []byte) (applied int, consumed int64, err error) {
	if err := db.Degraded(); err != nil {
		return 0, 0, err
	}
	c := db.collection(collection)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail: resume from consumed
		}
		rec, ok := decodeJournalLine(data[:nl])
		if !ok {
			break // corrupt or half-written record
		}
		// Journal locally before applying: a replica that cannot persist
		// a record must not apply it either, or a post-crash recovery
		// would diverge from what it acknowledged.
		if lerr := c.logRecord(rec); lerr != nil {
			return applied, consumed, lerr
		}
		c.applyRecordLocked(rec)
		applied++
		consumed += int64(nl + 1)
		data = data[nl+1:]
	}
	if applied > 0 && len(c.indexes) > 0 {
		c.rebuildIndexesLocked() // applyRecordLocked maintains only byID
	}
	return applied, consumed, nil
}

// CollectionSnapshot returns deep copies of every document in the named
// collection together with the journal position the snapshot
// corresponds to — generation and byte extent, an atomic basis for a
// full resync: restore the documents, then resume incremental shipping
// from the returned (gen, offset) position.
func (db *DB) CollectionSnapshot(collection string) (docs []Doc, journalSize int64, gen uint64) {
	c := db.collection(collection)
	c.mu.Lock()
	defer c.mu.Unlock()
	docs = make([]Doc, 0, len(c.docs))
	for _, d := range c.docs {
		docs = append(docs, storage.CloneDoc(d))
	}
	if c.journal != nil {
		journalSize = c.journal.size
		gen = c.journal.gen
	}
	return docs, journalSize, gen
}

// RestoreCollection replaces the named collection's contents with deep
// copies of docs — the receiving half of a full resync. The restored
// state is made durable the way compaction is: snapshot written
// atomically, local journal reset, so a replica crash right after a
// resync reloads the restored state, not the pre-resync one.
func (db *DB) RestoreCollection(collection string, docs []Doc) error {
	c := db.collection(collection)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = c.docs[:0]
	c.byID = make(map[string]int, len(docs))
	for _, d := range docs {
		cp := storage.CloneDoc(d)
		id := fmt.Sprint(cp["_id"])
		if pos, ok := c.byID[id]; ok {
			c.docs[pos] = cp
			continue
		}
		c.docs = append(c.docs, cp)
		c.byID[id] = len(c.docs) - 1
		c.bumpNextID(id)
	}
	c.rebuildIndexesLocked()
	if db.dir == "" { // in-memory store: nothing to persist
		return nil
	}
	if err := c.writeSnapshotLocked(); err != nil {
		return fmt.Errorf("database: restore %s: %w", collection, err)
	}
	if c.journal == nil {
		if err := c.ensureJournal(); err != nil {
			return c.db.degrade("journal-open", err)
		}
	}
	if c.journal != nil {
		if err := c.journal.reset(); err != nil {
			return fmt.Errorf("database: restore %s: %w", collection, err)
		}
	}
	return nil
}

// Health reports whether the store can accept reads and writes: nil
// while open and healthy, an error once Close ran or a durability
// failure flipped the store into read-only degraded mode
// (*storage.DegradedError, carrying the failing path and the disk
// error). The status daemon's /healthz turns this into a 503 with the
// reason attached.
func (db *DB) Health() error {
	db.mu.RLock()
	closed, degraded := db.closed, db.degraded
	db.mu.RUnlock()
	if closed {
		return errors.New("database: store is closed")
	}
	if degraded != nil {
		return degraded
	}
	return nil
}
