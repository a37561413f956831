package simcache

import (
	"sync"
	"sync/atomic"

	"gem5art/internal/database"
	"gem5art/internal/database/storage"
)

// Collections the cache lives in.
const (
	ResultCollection     = "simcache_results"
	CheckpointCollection = "simcache_checkpoints"
)

// DefaultMaxEntries was the entry bound of a memory tier the cache no
// longer has.
//
// Deprecated: nothing reads it; it stays until the benchmark module
// stops naming it.
const DefaultMaxEntries = 512

// Options configures nothing: the cache has no settings.
//
// Deprecated: pass Options{}; the type stays until the benchmark
// module stops naming it.
type Options struct{}

// Stats is one cache's counter snapshot, served at /api/cache.
type Stats struct {
	// Deprecated: always 0, as the cache has one tier and counts every
	// hit in HitsPersistent. It stays until the benchmark module stops
	// naming it, and /api/cache does not serve it.
	HitsMemory     int64 `json:"-"`
	HitsPersistent int64 `json:"hits_persistent"`
	Misses         int64 `json:"misses"`
	Stores         int64 `json:"stores"`
	Dedups         int64 `json:"singleflight_dedups"`
	Evictions      int64 `json:"evictions"`

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
	hitsPersistent, misses, stores, dedups, evictions atomic.Int64
	ckptHits, ckptMisses, corrupt, boots, bootsShared atomic.Int64
}

// Cache is the content-addressed simulation cache: singleflight over
// db, which holds results as documents and checkpoint blobs in its file
// store. All methods are safe for concurrent use. The store copies
// documents in and out, and singleflight waiters get private copies,
// so no caller ever aliases cached state.
type Cache struct {
	db database.Store

	mu         sync.Mutex
	flight     map[string]*call     // result singleflight, by run key
	bootFlight map[string]*bootCall // checkpoint singleflight, by class key

	n counters
}

type call struct {
	done chan struct{}
	doc  database.Doc // waiters' copy; only read once done is closed
	err  error
}

type bootCall struct {
	done chan struct{}
	blob []byte
	hash string
	err  error
}

// New opens a cache over db, sweeping any entries recorded under a
// different sim-version salt.
func New(db database.Store, _ Options) *Cache {
	c := &Cache{
		db:         db,
		flight:     make(map[string]*call),
		bootFlight: make(map[string]*bootCall),
	}
	c.sweepSalt()
	return c
}

// sweepSalt drops entries minted under a different salt — the explicit
// invalidation path when simulator semantics change.
func (c *Cache) sweepSalt() {
	for _, name := range []string{ResultCollection, CheckpointCollection} {
		col := c.db.Collection(name)
		for _, d := range col.Find(nil) {
			if s, _ := d["salt"].(string); s != SimVersionSalt {
				col.DeleteMany(database.Doc{"_id": d["_id"]})
				c.n.evictions.Add(1)
			}
		}
	}
}

// Stats snapshots the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		HitsPersistent:   c.n.hitsPersistent.Load(),
		Misses:           c.n.misses.Load(),
		Stores:           c.n.stores.Load(),
		Dedups:           c.n.dedups.Load(),
		Evictions:        c.n.evictions.Load(),
		CheckpointHits:   c.n.ckptHits.Load(),
		CheckpointMisses: c.n.ckptMisses.Load(),
		Corrupt:          c.n.corrupt.Load(),
		Boots:            c.n.boots.Load(),
		BootsShared:      c.n.bootsShared.Load(),
		Salt:             SimVersionSalt,
	}
}

// Lookup returns a deep copy of the cached result for key. It counts
// one hit or one miss.
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
	col := c.db.Collection(ResultCollection)
	d := col.FindOne(database.Doc{"_id": key})
	if d == nil {
		return nil, false
	}
	if s, _ := d["salt"].(string); s != SimVersionSalt {
		col.DeleteMany(database.Doc{"_id": key})
		c.n.evictions.Add(1)
		return nil, false
	}
	res, _ := d["result"].(map[string]any)
	if res == nil {
		return nil, false
	}
	c.n.hitsPersistent.Add(1)
	return res, true
}

// Store records a result under key. The store copies it in.
func (c *Cache) Store(key string, result database.Doc) {
	doc := database.Doc{"salt": SimVersionSalt, "result": result}
	col := c.db.Collection(ResultCollection)
	if ok, err := col.UpdateOne(database.Doc{"_id": key}, doc); err != nil || !ok {
		doc["_id"] = key
		_, _ = col.InsertOne(doc) // a concurrent Store already won: fine
	}
	c.n.stores.Add(1)
}

// Invalidate removes key.
func (c *Cache) Invalidate(key string) {
	if n := c.db.Collection(ResultCollection).DeleteMany(database.Doc{"_id": key}); n > 0 {
		c.n.evictions.Add(int64(n))
	}
}

// GetOrCompute returns the cached result for key, or runs fn to produce
// it. N concurrent calls with the same key execute fn exactly once: the
// first caller takes the key's flight slot, looks the key up and
// computes on a miss, while the rest wait on the flight and receive
// their own deep copies of its result (or its error — errors are never
// cached). The bool reports whether the result came from the cache (or
// a coalesced computation) rather than this caller's own fn.
func (c *Cache) GetOrCompute(key string, fn func() (database.Doc, error)) (database.Doc, bool, error) {
	c.mu.Lock()
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

	// finish hands waiters a copy of doc, so the caller may keep doc.
	finish := func(doc database.Doc, err error) {
		if doc != nil {
			fl.doc = storage.CloneDoc(doc)
		}
		fl.err = err
		c.mu.Lock()
		delete(c.flight, key)
		c.mu.Unlock()
		close(fl.done)
	}
	// Holding the flight slot, no one else can compute: a hit here
	// resolves every waiter without running fn, and a miss is stored
	// before the slot is given up, so the next caller hits.
	if doc, ok := c.Probe(key); ok {
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
	finish(doc, nil)
	return doc, false, nil
}
