package simcache

import (
	"fmt"

	"gem5art/internal/database"
)

// PutCheckpoint archives blob as the checkpoint for class: the blob
// goes into the content-addressed file store and a class document
// records its hash. Returns the blob's content hash. The archive is
// fail-fast: a degraded file store (a full disk among its causes) or an
// unrecordable class document fails the Put without leaving a class
// document that points at content the store never acknowledged.
func (c *Cache) PutCheckpoint(class BootClass, name string, blob []byte) (string, error) {
	hash, err := c.db.Files().Put(name, blob)
	if err != nil {
		return "", fmt.Errorf("simcache: archive checkpoint: %w", err)
	}
	key := class.Key()
	// Checkpoint reads blob_hash and the salt sweep reads salt. The
	// class fields stay although no code reads them: _id is a hash, and
	// they are the only readable record of the class it names.
	doc := database.Doc{
		"salt":        SimVersionSalt,
		"blob_hash":   hash,
		"kernel_hash": class.KernelHash,
		"disk_hash":   class.DiskHash,
		"cores":       float64(class.Cores),
		"mem":         class.Mem,
	}
	col := c.db.Collection(CheckpointCollection)
	if ok, uerr := col.UpdateOne(database.Doc{"_id": key}, doc); uerr != nil || !ok {
		doc["_id"] = key
		if _, ierr := col.InsertOne(doc); ierr != nil {
			// A concurrent archive of the same class already recorded the
			// doc: fine. Anything else (a degraded store) means the class
			// document is not durable — fail the archive.
			if col.FindOne(database.Doc{"_id": key}) == nil {
				return "", fmt.Errorf("simcache: record checkpoint class: %w", ierr)
			}
		}
	}
	return hash, nil
}

// Checkpoint returns the archived checkpoint blob for class, verifying
// its integrity by re-hashing the bytes fetched from the file store
// against the hash the class document recorded. A corrupt blob fails
// the restore: the class document is dropped so the next caller
// re-boots instead of hitting the same bad bytes.
func (c *Cache) Checkpoint(class BootClass) ([]byte, string, error) {
	key := class.Key()
	col := c.db.Collection(CheckpointCollection)
	d := col.FindOne(database.Doc{"_id": key})
	if d == nil {
		c.n.ckptMisses.Add(1)
		return nil, "", fmt.Errorf("simcache: no checkpoint for boot class %s", key)
	}
	hash, _ := d["blob_hash"].(string)
	blob, err := c.verifiedBlob(hash)
	if err != nil {
		col.DeleteMany(database.Doc{"_id": key})
		c.n.evictions.Add(1)
		return nil, "", err
	}
	c.n.ckptHits.Add(1)
	return blob, hash, nil
}

// CheckpointByHash fetches a checkpoint blob directly by content hash
// (the worker-side path: the broker payload carries the hash and the
// worker fetches the bytes), with the same integrity verification.
func (c *Cache) CheckpointByHash(hash string) ([]byte, error) {
	return c.verifiedBlob(hash)
}

// verifiedBlob fetches hash from the file store and re-hashes the bytes
// it got back, so a truncated or bit-flipped blob can never restore.
func (c *Cache) verifiedBlob(hash string) ([]byte, error) {
	blob, err := c.db.Files().Get(hash)
	if err != nil {
		return nil, fmt.Errorf("simcache: fetch checkpoint %s: %w", hash, err)
	}
	if got := database.HashBytes(blob); got != hash {
		c.n.corrupt.Add(1)
		return nil, fmt.Errorf("simcache: checkpoint %s failed integrity check (blob hashes to %s)", hash, got)
	}
	return blob, nil
}

// BootOnce returns the boot checkpoint for class, executing bootFn at
// most once per class across concurrent callers: the first caller with
// no archived checkpoint boots while the rest wait, and everyone —
// waiters and later callers alike — restores the one archived blob.
// shared reports whether this caller skipped the boot (restored an
// archived or coalesced checkpoint). Returned blobs are private copies.
//
// An archive failure after a successful boot (a degraded store) does
// not fail the run: the freshly booted blob is returned with an empty
// hash, and the next class member boots again.
func (c *Cache) BootOnce(class BootClass, name string, bootFn func() ([]byte, error)) (blob []byte, hash string, shared bool, err error) {
	key := class.Key()
	c.mu.Lock()
	if fl, ok := c.bootFlight[key]; ok {
		c.mu.Unlock()
		c.n.dedups.Add(1)
		<-fl.done
		if fl.err != nil {
			return nil, "", false, fl.err
		}
		c.n.bootsShared.Add(1)
		return append([]byte(nil), fl.blob...), fl.hash, true, nil
	}
	fl := &bootCall{done: make(chan struct{})}
	c.bootFlight[key] = fl
	c.mu.Unlock()

	finish := func(blob []byte, hash string, err error) {
		fl.blob, fl.hash, fl.err = blob, hash, err
		c.mu.Lock()
		delete(c.bootFlight, key)
		c.mu.Unlock()
		close(fl.done)
	}
	// Archived checkpoint first; any failure (missing, corrupt) falls
	// through to a fresh boot rather than failing the run.
	if b, h, err := c.Checkpoint(class); err == nil {
		finish(b, h, nil)
		c.n.bootsShared.Add(1)
		return append([]byte(nil), b...), h, true, nil
	}
	b, bootErr := bootFn()
	if bootErr != nil {
		finish(nil, "", bootErr)
		return nil, "", false, bootErr
	}
	h, archiveErr := c.PutCheckpoint(class, name, b)
	if archiveErr != nil {
		h = "" // boot succeeded; only the archive is lost
	}
	finish(b, h, nil)
	c.n.boots.Add(1)
	return append([]byte(nil), b...), h, false, nil
}
