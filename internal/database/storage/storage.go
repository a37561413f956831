// Package storage defines the contract every gem5art storage engine
// satisfies: a Store of named Collections of JSON-like documents plus a
// content-addressed FileStore for large blobs. The rest of the system —
// artifacts, runs, launch, experiments, analysis, the status daemon —
// programs against these interfaces only, so engines (the embedded
// in-memory engine, its journaled durability path, or a future sharded
// or remote backend) can be swapped without touching consumers.
//
// The package also owns the pieces of the contract that must behave
// identically across engines: the document type, the filter semantics
// (Matches), query refinement (FindOptions), and deep-copy helpers that
// keep stored documents isolated from caller-held ones.
package storage

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"strings"
)

// Doc is a single document: a JSON-like map from field names to values.
// Nested documents are Doc or map[string]any; arrays are []any.
type Doc = map[string]any

// Store is a database instance: a namespace of collections plus a file
// store. Implementations must be safe for concurrent use.
type Store interface {
	// Collection returns the named collection, creating it if necessary.
	Collection(name string) Collection
	// CollectionNames returns the names of all collections in sorted order.
	CollectionNames() []string
	// Files returns the store's file store.
	Files() FileStore
	// Flush forces everything to durable storage (a no-op for purely
	// in-memory engines). Journaled engines compact here.
	Flush() error
	// Close releases the store, making its state durable first.
	Close() error
}

// Collection is an ordered set of documents with optional unique and
// plain indexes. Documents returned by queries are deep copies: callers may
// mutate them freely without corrupting the store, and vice versa.
type Collection interface {
	// Name returns the collection name.
	Name() string
	// CreateUniqueIndex declares that the combination of the given keys
	// must be unique across the collection. Engines use the declaration
	// both to reject duplicates (*ErrDuplicate) and to serve equality
	// lookups on exactly these keys without scanning.
	CreateUniqueIndex(keys ...string)
	// CreateIndex declares a plain (non-unique) index on the given keys:
	// engines serve equality filters that pin all of them without
	// scanning. It never changes what a query returns, only its cost.
	CreateIndex(keys ...string)
	// InsertOne inserts a deep copy of d, assigning an "_id" if absent,
	// and returns the id.
	InsertOne(d Doc) (string, error)
	// InsertMany inserts the documents in order as one commit: on any
	// error (a duplicate, also within the batch, or a durability
	// failure) none of them is inserted.
	InsertMany(ds []Doc) error
	// Find returns copies of all documents matching filter, in insertion
	// order. A nil or empty filter matches every document.
	Find(filter Doc) []Doc
	// FindOne returns the first matching document, or nil.
	FindOne(filter Doc) Doc
	// FindWith returns matching documents refined by opts.
	FindWith(filter Doc, opts FindOptions) []Doc
	// Count returns the number of matching documents.
	Count(filter Doc) int
	// UpdateOne merges set into the first document matching filter. It
	// reports whether a document matched; a merge that would violate a
	// unique index is rejected with *ErrDuplicate and leaves the
	// document unchanged.
	UpdateOne(filter, set Doc) (bool, error)
	// DeleteMany removes all matching documents and returns how many
	// were removed.
	DeleteMany(filter Doc) int
	// Distinct returns the distinct values of key across matching
	// documents, in first-seen order.
	Distinct(key string, filter Doc) []any
	// AggregateKey summarizes the numeric values of key over matching
	// documents; non-numeric and missing values are skipped.
	AggregateKey(filter Doc, key string) Aggregate
}

// FileStore stores binary blobs (disk images, kernels, results
// archives) deduplicated by content hash, mirroring gem5art's use of
// MongoDB GridFS.
type FileStore interface {
	// Put stores the file under its content hash and returns the hash.
	// Storing identical content twice is a no-op. A durable engine that
	// cannot persist the blob fails the Put (typically with
	// *DegradedError) instead of acknowledging content it may lose.
	Put(name string, data []byte) (string, error)
	// Get reassembles and returns the file with the given content hash.
	Get(hash string) ([]byte, error)
	// Exists reports whether content with the given hash is stored.
	Exists(hash string) bool
	// Stat returns the metadata for a stored file.
	Stat(hash string) (FileMeta, bool)
	// List returns metadata for every stored file, sorted by name then
	// hash.
	List() []FileMeta
	// TotalBytes returns the total stored (deduplicated) content size.
	TotalBytes() int
}

// FileMeta describes a stored file.
type FileMeta struct {
	Name   string
	Hash   string // MD5 of the content, hex-encoded
	Length int
	Chunks int
}

// ErrDuplicate is returned when an insert or update violates a unique
// index.
type ErrDuplicate struct {
	Collection string
	Keys       []string
}

func (e *ErrDuplicate) Error() string {
	return fmt.Sprintf("database: duplicate document in %s on index (%s)",
		e.Collection, strings.Join(e.Keys, ","))
}

// HashBytes returns the hex MD5 of data — the identity used for
// artifact deduplication throughout gem5art.
func HashBytes(data []byte) string {
	sum := md5.Sum(data)
	return hex.EncodeToString(sum[:])
}

// CloneDoc returns a deep copy of d: nested maps and slices are copied
// recursively so no mutable state is shared between the original and
// the copy.
func CloneDoc(d Doc) Doc {
	if d == nil {
		return nil
	}
	cp := make(Doc, len(d))
	for k, v := range d {
		cp[k] = CloneValue(v)
	}
	return cp
}

// CloneValue deep-copies a document value. Scalars are returned as-is;
// maps and slices are copied recursively.
func CloneValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		return CloneDoc(t)
	case []any:
		cp := make([]any, len(t))
		for i, e := range t {
			cp[i] = CloneValue(e)
		}
		return cp
	case []string:
		return append([]string(nil), t...)
	case []byte:
		return append([]byte(nil), t...)
	default:
		return v
	}
}
