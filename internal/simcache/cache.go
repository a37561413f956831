package simcache

import (
	"container/list"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"gem5art/internal/database"
	"gem5art/internal/database/storage"
)

// Collections the persistent tier lives in.
const (
	ResultCollection     = "simcache_results"
	CheckpointCollection = "simcache_checkpoints"
)

// Defaults for the in-memory tier.
const (
	DefaultMaxEntries = 512
	DefaultMaxBytes   = 64 << 20
)

// Options configures a Cache. The zero value gives the defaults: the
// process salt, a 512-entry / 64 MiB memory tier, and no TTL.
type Options struct {
	// Salt is the sim-version salt; persistent entries minted under a
	// different salt are swept when the cache opens. "" = SimVersionSalt.
	Salt string
	// MaxEntries bounds the in-memory tier's entry count.
	MaxEntries int
	// MaxBytes bounds the in-memory tier's estimated byte footprint.
	MaxBytes int
	// TTL expires entries (both tiers) this long after they were stored.
	// 0 disables expiry.
	TTL time.Duration

	// MinFreeBytes is the disk low-water mark for checkpoint archives:
	// PutCheckpoint refuses (ErrLowDisk) rather than write a blob that
	// would leave less than this free. 0 disables the preflight.
	MinFreeBytes int64
	// Dir is the filesystem to measure free space on ("" = the current
	// directory) — point it at the database directory.
	Dir string
	// FreeBytes overrides the free-space probe (test hook; nil = statfs
	// on Dir).
	FreeBytes func() (int64, error)

	now func() time.Time // test hook
}

// Stats is one cache's counter snapshot, served at /api/cache.
type Stats struct {
	HitsMemory     int64 `json:"hits_memory"`
	HitsPersistent int64 `json:"hits_persistent"`
	Misses         int64 `json:"misses"`
	Stores         int64 `json:"stores"`
	Dedups         int64 `json:"singleflight_dedups"`
	Evictions      int64 `json:"evictions"`
	MemoryEntries  int64 `json:"memory_entries"`
	MemoryBytes    int64 `json:"memory_bytes"`

	CheckpointHits   int64 `json:"checkpoint_hits"`
	CheckpointMisses int64 `json:"checkpoint_misses"`
	Corrupt          int64 `json:"corrupt_checkpoints"`
	Boots            int64 `json:"boots_executed"`
	BootsShared      int64 `json:"boots_shared"`

	Salt string `json:"salt"`
}

// counters backs Stats with atomics so hot-path updates never contend
// on the cache mutex.
type counters struct {
	hitsMemory, hitsPersistent, misses, stores, dedups, evictions atomic.Int64
	ckptHits, ckptMisses, corrupt, boots, bootsShared             atomic.Int64
}

// Cache is the two-tier content-addressed simulation cache: an
// in-memory LRU in front of a persistent tier in db (documents for
// results, the file store for checkpoint blobs). All methods are safe
// for concurrent use; results passed in and out are deep-copied, so no
// caller ever aliases cached state.
type Cache struct {
	db   database.Store
	opts Options

	mu         sync.Mutex
	lru        *list.List               // front = most recently used
	items      map[string]*list.Element // key -> lru element
	bytes      int
	flight     map[string]*call     // result singleflight, by run key
	bootFlight map[string]*bootCall // checkpoint singleflight, by class key

	n counters
}

type entry struct {
	key     string
	doc     database.Doc
	size    int
	created time.Time
}

type call struct {
	done chan struct{}
	doc  database.Doc
	err  error
}

type bootCall struct {
	done chan struct{}
	blob []byte
	hash string
	err  error
}

// New opens a cache over db, sweeping any persistent entries recorded
// under a different sim-version salt.
func New(db database.Store, opts Options) *Cache {
	if opts.Salt == "" {
		opts.Salt = SimVersionSalt
	}
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	c := &Cache{
		db:         db,
		opts:       opts,
		lru:        list.New(),
		items:      make(map[string]*list.Element),
		flight:     make(map[string]*call),
		bootFlight: make(map[string]*bootCall),
	}
	c.sweepSalt()
	return c
}

// sweepSalt drops persistent entries minted under a different salt —
// the explicit invalidation path when simulator semantics change.
func (c *Cache) sweepSalt() {
	for _, name := range []string{ResultCollection, CheckpointCollection} {
		col := c.db.Collection(name)
		for _, d := range col.Find(nil) {
			if s, _ := d["salt"].(string); s != c.opts.Salt {
				col.DeleteMany(database.Doc{"_id": d["_id"]})
				c.n.evictions.Add(1)
			}
		}
	}
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := int64(c.lru.Len()), int64(c.bytes)
	c.mu.Unlock()
	return Stats{
		HitsMemory:       c.n.hitsMemory.Load(),
		HitsPersistent:   c.n.hitsPersistent.Load(),
		Misses:           c.n.misses.Load(),
		Stores:           c.n.stores.Load(),
		Dedups:           c.n.dedups.Load(),
		Evictions:        c.n.evictions.Load(),
		MemoryEntries:    entries,
		MemoryBytes:      bytes,
		CheckpointHits:   c.n.ckptHits.Load(),
		CheckpointMisses: c.n.ckptMisses.Load(),
		Corrupt:          c.n.corrupt.Load(),
		Boots:            c.n.boots.Load(),
		BootsShared:      c.n.bootsShared.Load(),
		Salt:             c.opts.Salt,
	}
}

func (c *Cache) expired(created, now time.Time) bool {
	return c.opts.TTL > 0 && now.Sub(created) > c.opts.TTL
}

// docSize estimates a result's footprint for the byte bound.
func docSize(d database.Doc) int {
	raw, err := json.Marshal(d)
	if err != nil {
		return 256
	}
	return len(raw)
}

// Lookup returns a deep copy of the cached result for key, consulting
// the memory tier and then the persistent tier (promoting on hit). It
// counts one hit or one miss.
func (c *Cache) Lookup(key string) (database.Doc, bool) {
	if doc, ok := c.Probe(key); ok {
		return doc, true
	}
	c.n.misses.Add(1)
	return nil, false
}

// Probe is Lookup for a caller that falls back to GetOrCompute on a
// miss: it counts a hit but leaves the miss uncounted, because
// GetOrCompute counts it, so the request still counts exactly one hit
// or one miss.
func (c *Cache) Probe(key string) (database.Doc, bool) {
	now := c.opts.now()
	c.mu.Lock()
	doc, ok := c.lookupMemLocked(key, now)
	c.mu.Unlock()
	if ok {
		c.n.hitsMemory.Add(1)
		return doc, true
	}
	return c.lookupPersistent(key, now)
}

// lookupMemLocked serves the memory tier. Caller holds c.mu.
func (c *Cache) lookupMemLocked(key string, now time.Time) (database.Doc, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if c.expired(e.created, now) {
		c.removeLocked(el)
		return nil, false
	}
	c.lru.MoveToFront(el)
	return storage.CloneDoc(e.doc), true
}

// lookupPersistent serves the persistent tier, promoting hits into the
// memory tier. It counts its own hits; misses are counted by callers
// (Lookup counts a combined miss, GetOrCompute counts before running,
// Probe counts none).
func (c *Cache) lookupPersistent(key string, now time.Time) (database.Doc, bool) {
	col := c.db.Collection(ResultCollection)
	d := col.FindOne(database.Doc{"_id": key})
	if d == nil {
		return nil, false
	}
	if s, _ := d["salt"].(string); s != c.opts.Salt {
		col.DeleteMany(database.Doc{"_id": key})
		c.n.evictions.Add(1)
		return nil, false
	}
	if created, _ := d["created_unix"].(float64); c.expired(time.Unix(int64(created), 0), now) {
		col.DeleteMany(database.Doc{"_id": key})
		c.n.evictions.Add(1)
		return nil, false
	}
	res, _ := d["result"].(map[string]any)
	if res == nil {
		return nil, false
	}
	// Store recorded the result's size; a document without one is sized
	// here.
	sz, ok := d["size"].(float64)
	size := int(sz)
	if !ok {
		size = docSize(res)
	}
	c.admit(key, res, size, now)
	c.n.hitsPersistent.Add(1)
	return storage.CloneDoc(res), true
}

// Store records a result under key in both tiers. The result is
// deep-copied on the way in.
func (c *Cache) Store(key string, result database.Doc) {
	now := c.opts.now()
	cp := storage.CloneDoc(result)
	size := docSize(cp)
	doc := database.Doc{
		"salt":         c.opts.Salt,
		"created_unix": float64(now.Unix()),
		"result":       cp,
		"size":         float64(size),
	}
	col := c.db.Collection(ResultCollection)
	if ok, err := col.UpdateOne(database.Doc{"_id": key}, doc); err != nil || !ok {
		doc["_id"] = key
		_, _ = col.InsertOne(doc) // a concurrent Store already won: fine
	}
	c.admit(key, cp, size, now)
	c.n.stores.Add(1)
}

// admit inserts (or refreshes) a memory-tier entry of size bytes (its
// docSize) and enforces the entry and byte bounds, evicting from the LRU
// tail.
func (c *Cache) admit(key string, doc database.Doc, size int, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.doc, e.size, e.created = doc, size, now
		c.lru.MoveToFront(el)
	} else {
		c.items[key] = c.lru.PushFront(&entry{key: key, doc: doc, size: size, created: now})
		c.bytes += size
	}
	for c.lru.Len() > c.opts.MaxEntries {
		c.removeLocked(c.lru.Back())
	}
	for c.bytes > c.opts.MaxBytes && c.lru.Len() > 1 {
		c.removeLocked(c.lru.Back())
	}
}

// removeLocked drops one memory-tier entry. Caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.n.evictions.Add(1)
}

// Invalidate removes key from both tiers.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	c.mu.Unlock()
	if n := c.db.Collection(ResultCollection).DeleteMany(database.Doc{"_id": key}); n > 0 {
		c.n.evictions.Add(int64(n))
	}
}

// GetOrCompute returns the cached result for key, or runs fn to produce
// it. N concurrent calls with the same key execute fn exactly once: the
// first caller computes while the rest wait on the in-flight computation
// and receive their own deep copies of its result (or its error —
// errors are never cached). The bool reports whether the result came
// from the cache (or a coalesced computation) rather than this caller's
// own fn.
func (c *Cache) GetOrCompute(key string, fn func() (database.Doc, error)) (database.Doc, bool, error) {
	now := c.opts.now()
	c.mu.Lock()
	if doc, ok := c.lookupMemLocked(key, now); ok {
		c.mu.Unlock()
		c.n.hitsMemory.Add(1)
		return doc, true, nil
	}
	if fl, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.n.dedups.Add(1)
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		return storage.CloneDoc(fl.doc), true, nil
	}
	fl := &call{done: make(chan struct{})}
	c.flight[key] = fl
	c.mu.Unlock()

	finish := func(doc database.Doc, err error) {
		fl.doc, fl.err = doc, err
		c.mu.Lock()
		delete(c.flight, key)
		c.mu.Unlock()
		close(fl.done)
	}
	// Holding the flight slot, no one else can compute: a persistent hit
	// here resolves every waiter without running fn.
	if doc, ok := c.lookupPersistent(key, now); ok {
		finish(doc, nil)
		return doc, true, nil
	}
	c.n.misses.Add(1)
	doc, err := fn()
	if err != nil {
		finish(nil, err)
		return nil, false, err
	}
	c.Store(key, doc)
	finish(storage.CloneDoc(doc), nil)
	return storage.CloneDoc(doc), false, nil
}
