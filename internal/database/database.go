// Package database implements the default storage engine behind the
// interfaces of internal/database/storage: an embedded document
// database modeled on the subset of MongoDB that gem5art depends on —
// named collections of JSON-like documents, filter-based queries,
// unique indexes (used to deduplicate artifacts by hash), plain
// secondary indexes, and a GridFS-style chunked file store for large
// binary artifacts such as disk images and kernels.
//
// The engine runs fully in memory or persists to a directory. The
// persistent path is journaled by default: every mutation appends one
// fsynced record to a per-collection append-only journal (InsertMany
// commits its whole batch under one fsync), startup replays the journal
// on top of the last snapshot, and background compaction folds a grown
// journal back into a snapshot. Equality lookups on "_id" or on all the
// keys of a declared index — unique or plain — are served from hash
// indexes without scanning the collection.
//
// Consumers must not depend on the concrete types here — they program
// against storage.Store (aliased below as Store) so other engines can
// be swapped in.
package database

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gem5art/internal/database/storage"
)

// Interface and value types re-exported so call sites read
// database.Store / database.Doc while depending only on the
// engine-neutral storage contract.
type (
	Doc          = storage.Doc
	Store        = storage.Store
	Collection   = storage.Collection
	FileStore    = storage.FileStore
	FileMeta     = storage.FileMeta
	ErrDuplicate = storage.ErrDuplicate
	Aggregate    = storage.Aggregate
)

// HashBytes returns the hex MD5 of data — the identity used for
// artifact deduplication throughout gem5art.
func HashBytes(data []byte) string { return storage.HashBytes(data) }

// Options tunes the engine's durability path. A store with a directory
// always journals: mutations append records to the append-only journal,
// and Flush or compaction folds them into snapshots.
type Options struct {
	// SyncOnCommit fsyncs the journal after every mutation, making each
	// committed operation durable against process crashes.
	SyncOnCommit bool
	// CompactAfter triggers background compaction once a collection's
	// journal holds at least this many records (0 = default 8192).
	// Compaction also fires early when the journal dwarfs the live
	// document count, so delete/update-heavy workloads do not replay
	// unbounded history at startup.
	CompactAfter int
	// FS is the filesystem the engine's durable paths run through
	// (nil = the real filesystem). Chaos tests thread a
	// faultinject.DiskChaos here to inject deterministic disk faults
	// under the journal, snapshots, and the blob store.
	FS storage.FS
}

// DefaultOptions is the configuration Open uses: fsync on every commit.
func DefaultOptions() Options {
	return Options{SyncOnCommit: true, CompactAfter: 8192}
}

// Open opens (or creates) a database with the default engine options.
// If dir is empty the database lives purely in memory; otherwise
// collections and files are loaded from (snapshot + journal replay)
// and persisted to that directory.
func Open(dir string) (Store, error) { return OpenWith(dir, DefaultOptions()) }

// OpenWith opens a database with explicit engine options. Options only
// affect how mutations are made durable; any on-disk state (snapshots,
// journals, legacy layouts) is always loaded.
func OpenWith(dir string, opts Options) (Store, error) {
	db, err := open(dir, opts)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// MustOpen is Open for tests and examples where failure is fatal.
func MustOpen(dir string) Store {
	db, err := Open(dir)
	if err != nil {
		panic(err)
	}
	return db
}

func open(dir string, opts Options) (*DB, error) {
	if opts.CompactAfter <= 0 {
		opts.CompactAfter = 8192
	}
	if opts.FS == nil {
		opts.FS = storage.OSFS
	}
	db := &DB{
		dir:         dir,
		opts:        opts,
		collections: make(map[string]*collection),
	}
	db.files = newFileStore(db)
	if dir != "" {
		if err := db.load(); err != nil {
			return nil, fmt.Errorf("database: open %s: %w", dir, err)
		}
	}
	return db, nil
}

// DB is the default embedded engine. It implements storage.Store.
type DB struct {
	mu          sync.RWMutex
	dir         string // "" means in-memory only
	opts        Options
	collections map[string]*collection
	files       *fileStore
	compactWG   sync.WaitGroup
	closed      bool                   // set by Close; surfaced through Health
	degraded    *storage.DegradedError // first durability failure; store is read-only once set
}

// fs returns the filesystem the engine's durable paths run through.
func (db *DB) fs() storage.FS {
	if db.opts.FS == nil {
		return storage.OSFS
	}
	return db.opts.FS
}

// degrade flips the store into read-only degraded mode on the first
// durability failure and returns the degraded error every subsequent
// mutation gets. Reads keep serving from memory; Health (and through
// it statusd /healthz) reports the reason until an operator repairs
// the disk and reopens the store.
func (db *DB) degrade(reason string, err error) *storage.DegradedError {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.degraded == nil {
		db.degraded = &storage.DegradedError{Reason: reason, Err: err}
	}
	return db.degraded
}

// Degraded returns the *storage.DegradedError that flipped the store
// read-only, or nil while the store is healthy.
func (db *DB) Degraded() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.degraded == nil {
		return nil
	}
	return db.degraded
}

// Collection returns the named collection, creating it if necessary.
func (db *DB) Collection(name string) Collection { return db.collection(name) }

func (db *DB) collection(name string) *collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.collections[name]
	if !ok {
		c = &collection{name: name, db: db, byID: make(map[string]int)}
		db.collections[name] = c
	}
	return c
}

// CollectionNames returns the names of all collections in sorted order.
func (db *DB) CollectionNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.collections))
	for n := range db.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Files returns the database's file store.
func (db *DB) Files() FileStore { return db.files }

// snapshot returns the collections at a point in time for iteration
// without holding the database lock.
func (db *DB) snapshot() []*collection {
	db.mu.RLock()
	defer db.mu.RUnlock()
	cols := make([]*collection, 0, len(db.collections))
	for _, c := range db.collections {
		cols = append(cols, c)
	}
	return cols
}

// Close releases the database. It is cheap: journals are already
// synced per commit, so Close only drains background compactions and
// closes file handles and the blob pack, whose frames Put already
// fsynced; it does not rewrite collections.
func (db *DB) Close() error {
	db.mu.Lock()
	db.closed = true
	db.mu.Unlock()
	if db.dir == "" {
		return nil
	}
	db.compactWG.Wait()
	var firstErr error
	for _, c := range db.snapshot() {
		c.mu.Lock()
		if c.journal != nil {
			if err := c.journal.close(); err != nil && firstErr == nil {
				firstErr = err
			}
			c.journal = nil
		}
		c.mu.Unlock()
	}
	if err := db.files.close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// collection is the engine's concrete collection. It implements
// storage.Collection.
type collection struct {
	mu         sync.RWMutex
	name       string
	db         *DB
	docs       []Doc
	indexes    []*hashIndex   // declared unique and plain indexes
	byID       map[string]int // "_id" -> position in docs
	nextID     int64
	journal    *journalWriter // nil when not journaling
	compacting bool           // a background compaction is queued or running
}

// Name returns the collection name.
func (c *collection) Name() string { return c.name }

// CreateUniqueIndex declares that the combination of the given keys
// must be unique across the collection, and builds a hash index over
// the existing documents so equality lookups on exactly these keys are
// O(1). Re-declaring an existing index is a no-op (registries install
// their indexes on every open).
func (c *collection) CreateUniqueIndex(keys ...string) { c.declareIndex(keys, true) }

// CreateIndex declares a plain (non-unique) hash index on the given
// keys: equality filters that pin all of them are answered from the
// index instead of a scan. Re-declaring is a no-op.
func (c *collection) CreateIndex(keys ...string) { c.declareIndex(keys, false) }

func (c *collection) declareIndex(keys []string, unique bool) {
	c.mu.RLock()
	declared := c.hasIndexLocked(keys, unique)
	c.mu.RUnlock()
	if declared {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hasIndexLocked(keys, unique) {
		return
	}
	idx := newHashIndex(keys, unique)
	idx.build(c.docs)
	c.indexes = append(c.indexes, idx)
}

func (c *collection) hasIndexLocked(keys []string, unique bool) bool {
	for _, idx := range c.indexes {
		if idx.unique == unique && sameKeys(idx.keys, keys) {
			return true
		}
	}
	return false
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InsertOne inserts a deep copy of d, assigning an "_id" if absent,
// and returns the id. The journal record commits before memory is
// touched: a journal failure returns *storage.DegradedError and the
// document is not inserted.
func (c *collection) InsertOne(d Doc) (string, error) {
	defer observeOp("insert", time.Now())
	cps, err := c.insert([]Doc{d})
	if err != nil {
		return "", err
	}
	return fmt.Sprint(cps[0]["_id"]), nil
}

// InsertMany inserts the documents in order as one commit: the whole
// batch is validated first (against the indexes and against earlier
// documents of the same batch), then journaled with one write and one
// fsync, then applied. Any error — a duplicate, or a journal failure
// (*storage.DegradedError) — inserts nothing. A crash mid-write leaves
// a CRC-valid prefix of the batch in the journal, exactly as that many
// single inserts would.
func (c *collection) InsertMany(ds []Doc) error {
	if len(ds) == 0 {
		return nil
	}
	defer observeOp("insert_many", time.Now())
	_, err := c.insert(ds)
	return err
}

// insert is the shared insert commit: copy and validate every document,
// journal the batch, then apply it. It returns the stored copies.
func (c *collection) insert(ds []Doc) ([]Doc, error) {
	if err := c.db.Degraded(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cps := make([]Doc, len(ds))
	recs := make([]journalRecord, len(ds))
	var claimed map[string]bool // unique keys taken by earlier documents of this batch
	if len(ds) > 1 {
		claimed = make(map[string]bool, len(ds))
	}
	for i, d := range ds {
		cp := storage.CloneDoc(d)
		if _, ok := cp["_id"]; !ok {
			c.nextID++
			cp["_id"] = fmt.Sprintf("%s-%d", c.name, c.nextID)
		}
		if err := c.checkInsertLocked(cp, claimed); err != nil {
			return nil, err
		}
		cps[i] = cp
		recs[i] = journalRecord{Op: opInsert, Doc: cp}
	}
	if err := c.logRecord(recs...); err != nil {
		return nil, err
	}
	for _, cp := range cps {
		c.applyInsertLocked(cp)
	}
	return cps, nil
}

// checkInsertLocked validates cp against "_id" and every unique index,
// and — when claimed is non-nil — against the documents validated
// before it in the same batch, whose keys it then joins. Caller holds
// c.mu.
func (c *collection) checkInsertLocked(cp Doc, claimed map[string]bool) error {
	id := fmt.Sprint(cp["_id"])
	if _, dup := c.byID[id]; dup || claimed["_id\x00"+id] {
		return &ErrDuplicate{Collection: c.name, Keys: []string{"_id"}}
	}
	if claimed != nil {
		claimed["_id\x00"+id] = true
	}
	for i, idx := range c.indexes {
		if !idx.unique {
			continue
		}
		key := canonicalKey(cp, idx.keys)
		if _, dup := idx.pos[key]; dup {
			return &ErrDuplicate{Collection: c.name, Keys: idx.keys}
		}
		if claimed != nil {
			batchKey := strconv.Itoa(i) + "\x00" + key
			if claimed[batchKey] {
				return &ErrDuplicate{Collection: c.name, Keys: idx.keys}
			}
			claimed[batchKey] = true
		}
	}
	return nil
}

// applyInsertLocked appends a validated document. The caller holds
// c.mu, has deep-copied the document, and has journaled the insert.
func (c *collection) applyInsertLocked(cp Doc) {
	pos := len(c.docs)
	c.docs = append(c.docs, cp)
	c.byID[fmt.Sprint(cp["_id"])] = pos
	for _, idx := range c.indexes {
		idx.add(canonicalKey(cp, idx.keys), pos)
	}
}

// Find returns deep copies of all documents matching filter, in
// insertion order. Equality filters on "_id" or on a declared index's
// exact key set are answered from the index without scanning.
func (c *collection) Find(filter Doc) []Doc {
	defer observeOp("find", time.Now())
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Doc
	c.eachMatchLocked(filter, func(pos int) bool {
		out = append(out, storage.CloneDoc(c.docs[pos]))
		return true
	})
	return out
}

// FindOne returns the first matching document, or nil if none matches.
func (c *collection) FindOne(filter Doc) Doc {
	defer observeOp("find_one", time.Now())
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out Doc
	c.eachMatchLocked(filter, func(pos int) bool {
		out = storage.CloneDoc(c.docs[pos])
		return false
	})
	return out
}

// Count returns the number of matching documents.
func (c *collection) Count(filter Doc) int {
	defer observeOp("count", time.Now())
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(filter) == 0 {
		return len(c.docs)
	}
	n := 0
	c.eachMatchLocked(filter, func(int) bool {
		n++
		return true
	})
	return n
}

// AggregateKey summarizes the numeric values of key over matching
// documents without copying them.
func (c *collection) AggregateKey(filter Doc, key string) Aggregate {
	defer observeOp("aggregate", time.Now())
	c.mu.RLock()
	defer c.mu.RUnlock()
	var agg Aggregate
	for _, d := range c.docs {
		if !storage.Matches(d, filter) {
			continue
		}
		v, ok := storage.Lookup(d, key)
		if !ok {
			continue
		}
		f, ok := storage.ToFloat(v)
		if !ok {
			continue
		}
		if agg.Count == 0 || f < agg.Min {
			agg.Min = f
		}
		if agg.Count == 0 || f > agg.Max {
			agg.Max = f
		}
		agg.Count++
		agg.Sum += f
	}
	return agg
}

// UpdateOne merges set into the first document matching filter and
// reports whether a document matched. A merge that would collide with
// another document on a unique index is rejected with *ErrDuplicate
// and leaves the store unchanged.
func (c *collection) UpdateOne(filter, set Doc) (bool, error) {
	defer observeOp("update", time.Now())
	if err := c.db.Degraded(); err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pos := -1
	c.eachMatchLocked(filter, func(p int) bool {
		pos = p
		return false
	})
	if pos < 0 {
		return false, nil
	}
	d := c.docs[pos]
	// Validate the merged document against every unique index before
	// touching anything: an update must not sneak past the uniqueness
	// guarantee an insert would have hit. Only an update that sets a
	// field some index is keyed on can move the document, so the common
	// status-only update plans nothing here.
	type rekey struct {
		idx      *hashIndex
		old, new string
	}
	var rekeys []rekey
	var merged Doc // d with set applied, top level only: enough to key it
	for _, idx := range c.indexes {
		if !idx.touchedBy(set) {
			continue
		}
		if merged == nil {
			merged = make(Doc, len(d)+len(set))
			for k, v := range d {
				merged[k] = v
			}
			for k, v := range set {
				if k != "_id" {
					merged[k] = v
				}
			}
		}
		oldKey := canonicalKey(d, idx.keys)
		newKey := canonicalKey(merged, idx.keys)
		if oldKey == newKey {
			continue
		}
		if idx.unique && len(idx.pos[newKey]) > 0 {
			return false, &ErrDuplicate{Collection: c.name, Keys: idx.keys}
		}
		rekeys = append(rekeys, rekey{idx, oldKey, newKey})
	}
	setCopy := storage.CloneDoc(set)
	delete(setCopy, "_id")
	// Journal first: a failed commit must leave the document and the
	// indexes untouched.
	if err := c.logRecord(journalRecord{Op: opUpdate, ID: fmt.Sprint(d["_id"]), Set: setCopy}); err != nil {
		return false, err
	}
	for _, rk := range rekeys {
		rk.idx.remove(rk.old, pos)
		rk.idx.add(rk.new, pos)
	}
	for k, v := range setCopy {
		d[k] = v
	}
	return true, nil
}

// DeleteMany removes all matching documents and returns how many were
// removed. On a degraded store (or a journal failure during the
// commit) nothing is removed and 0 is returned — the interface carries
// no error, so refusing the whole operation is the fail-fast answer.
func (c *collection) DeleteMany(filter Doc) int {
	defer observeOp("delete", time.Now())
	if err := c.db.Degraded(); err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var removedIDs []string
	for _, d := range c.docs {
		if storage.Matches(d, filter) {
			removedIDs = append(removedIDs, fmt.Sprint(d["_id"]))
		}
	}
	if len(removedIDs) == 0 {
		return 0
	}
	// Journal first: a failed commit must not drop documents from
	// memory that a reopen would resurrect.
	if err := c.logRecord(journalRecord{Op: opDelete, IDs: removedIDs}); err != nil {
		return 0
	}
	kept := c.docs[:0]
	for _, d := range c.docs {
		if !storage.Matches(d, filter) {
			kept = append(kept, d)
		}
	}
	for i := len(kept); i < len(c.docs); i++ {
		c.docs[i] = nil // release removed docs
	}
	c.docs = kept
	c.rebuildIndexesLocked()
	return len(removedIDs)
}

// bumpNextID advances the id counter past a loaded document's
// generated id, so reopened collections never reissue an id.
func (c *collection) bumpNextID(id string) {
	rest, ok := strings.CutPrefix(id, c.name+"-")
	if !ok {
		return
	}
	if n, err := strconv.ParseInt(rest, 10, 64); err == nil && n > c.nextID {
		c.nextID = n
	}
}
