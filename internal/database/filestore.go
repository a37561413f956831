package database

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gem5art/internal/database/storage"
)

// chunkSize mirrors GridFS's default chunk size (255 KiB). Files larger
// than this are split across multiple in-memory chunks.
const chunkSize = 255 * 1024

// fileStore is the engine's content-addressed blob store. It implements
// storage.FileStore. Blobs are held chunked in memory and — for
// persistent stores — appended at Put time as one fsynced frame of the
// blob pack, <dir>/files/blobs.pack (see pack.go). The write-through is
// fail-fast: a Put whose frame cannot be made durable returns
// *storage.DegradedError and stores nothing, so a hash returned by Put
// always names durable content. Stores written before the pack hold
// each blob as a <hash>.blob/<hash>.meta pair, raw or (older still)
// base64; load reads and Scrub verifies those where they are.
type fileStore struct {
	mu    sync.RWMutex
	db    *DB
	metas map[string]*FileMeta // keyed by hash
	data  map[string][][]byte  // hash -> chunks
	where map[string]blobLoc   // hash -> its durable bytes (persistent stores)

	// pack is the open blob pack: nil until the first Put or a load
	// that finds one, and again after close. packSize is its
	// acknowledged length — every byte below it belongs to a frame
	// whose Put returned — and is where the next frame goes.
	pack     storage.File
	packSize int64
}

// blobLoc is where a stored blob's durable bytes live.
type blobLoc struct {
	legacy bool  // a <hash>.blob/.meta pair written before the pack
	frame  int64 // pack offset of the frame's header line
	off    int64 // pack offset of the content
}

func newFileStore(db *DB) *fileStore {
	return &fileStore{
		db:    db,
		metas: make(map[string]*FileMeta),
		data:  make(map[string][][]byte),
		where: make(map[string]blobLoc),
	}
}

func (fs *fileStore) dir() string {
	if fs.db.dir == "" {
		return ""
	}
	return filepath.Join(fs.db.dir, "files")
}

// Put stores the file under its content hash. Storing identical content
// twice is a no-op (the paper: a file is uploaded "unless it already
// exists there"). It returns the content hash. For persistent stores
// the blob's frame is appended to the pack and fsynced before Put
// returns; a disk failure degrades the store and fails the Put without
// storing anything, in memory or on disk.
func (fs *fileStore) Put(name string, data []byte) (string, error) {
	defer observeOp("file_put", time.Now())
	if err := fs.db.Degraded(); err != nil {
		return "", err
	}
	hash := HashBytes(data)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.metas[hash]; ok {
		return hash, nil
	}
	meta := &FileMeta{Name: name, Hash: hash, Length: len(data), Chunks: (len(data) + chunkSize - 1) / chunkSize}
	if fs.dir() != "" {
		loc, err := fs.appendFrame(meta, data)
		if err != nil {
			return "", fs.db.degrade("filestore", err)
		}
		fs.where[hash] = loc
	}
	fs.metas[hash] = meta
	fs.data[hash] = splitChunks(bytes.Clone(data))
	return hash, nil
}

// appendFrame writes the blob's frame — header, then content, as two
// writes so the content is never copied into a frame buffer — and
// fsyncs it. On failure the pack is rewound to its acknowledged
// length, as the journal is after a failed append, so no byte of the
// failed frame is there at the next load. Caller holds fs.mu.
func (fs *fileStore) appendFrame(meta *FileMeta, data []byte) (blobLoc, error) {
	hdr, err := packHeader(meta, data)
	if err != nil {
		return blobLoc{}, err
	}
	if fs.pack == nil {
		f, err := openAppend(fs.db.fs(), filepath.Join(fs.dir(), packName), fs.packSize)
		if err != nil {
			return blobLoc{}, fmt.Errorf("database: blob pack: %w", err)
		}
		fs.pack = f
	}
	loc := blobLoc{frame: fs.packSize, off: fs.packSize + int64(len(hdr))}
	end := loc.off + int64(len(data))
	if err := writeFrame(fs.pack, hdr, data, end); err != nil {
		rewind(fs.pack, fs.packSize)
		return blobLoc{}, fmt.Errorf("database: blob pack: %w", err)
	}
	fs.packSize = end
	return loc, nil
}

// writeFrame appends one frame and fsyncs it. A write that reports
// success but left the file short of end (a torn write) would misframe
// every later frame, so the file position is checked before the sync.
func writeFrame(f storage.File, hdr, data []byte, end int64) error {
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	pos, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	if pos != end {
		return fmt.Errorf("torn frame: file ends at %d, want %d", pos, end)
	}
	return f.Sync()
}

// splitChunks slices data into GridFS-sized chunks without copying.
func splitChunks(data []byte) [][]byte {
	var chunks [][]byte
	for off := 0; off < len(data); off += chunkSize {
		end := min(off+chunkSize, len(data))
		chunks = append(chunks, data[off:end:end])
	}
	return chunks
}

// Get reassembles and returns the file with the given content hash.
func (fs *fileStore) Get(hash string) ([]byte, error) {
	defer observeOp("file_get", time.Now())
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	meta, ok := fs.metas[hash]
	if !ok {
		return nil, fmt.Errorf("database: file %s not found", hash)
	}
	out := make([]byte, 0, meta.Length)
	for _, chunk := range fs.data[hash] {
		out = append(out, chunk...)
	}
	return out, nil
}

// Exists reports whether content with the given hash is stored.
func (fs *fileStore) Exists(hash string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.metas[hash]
	return ok
}

// Stat returns the metadata for a stored file.
func (fs *fileStore) Stat(hash string) (FileMeta, bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	m, ok := fs.metas[hash]
	if !ok {
		return FileMeta{}, false
	}
	return *m, true
}

// List returns metadata for every stored file, sorted by name then hash.
func (fs *fileStore) List() []FileMeta {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]FileMeta, 0, len(fs.metas))
	for _, m := range fs.metas {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// TotalBytes returns the total stored (deduplicated) content size.
func (fs *fileStore) TotalBytes() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n := 0
	for _, m := range fs.metas {
		n += m.Length
	}
	return n
}

// close closes the pack. Every frame was fsynced by its Put, so there
// is nothing left to flush.
func (fs *fileStore) close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.pack == nil {
		return nil
	}
	err := fs.pack.Close()
	fs.pack = nil
	return err
}

// readDurable re-reads a blob's durable bytes: the content of its pack
// frame, or a legacy pair's .blob file, which may be base64. A pack
// read after close fails with os.ErrClosed.
func (fs *fileStore) readDurable(hash string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	loc, ok := fs.where[hash]
	meta := fs.metas[hash]
	switch {
	case !ok || meta == nil:
		return nil, fmt.Errorf("database: file %s not found", hash)
	case loc.legacy:
		return fs.db.fs().ReadFile(filepath.Join(fs.dir(), hash+".blob"))
	case fs.pack == nil:
		return nil, os.ErrClosed
	}
	raw := make([]byte, meta.Length)
	_, err := fs.pack.ReadAt(raw, loc.off)
	return raw, err
}

// quarantine evicts a corrupt blob so it is never served again and
// sets its durable bytes aside under <dir>/quarantine/ for forensics.
// A legacy pair is moved there. A pack frame is copied there: the pack
// is append-only, so the frame stays and every load skips it again
// once its CRC fails, while a later Put of the content appends a new
// one.
func (fs *fileStore) quarantine(hash string) {
	fs.mu.Lock()
	loc, durable := fs.where[hash]
	var frame []byte
	if meta := fs.metas[hash]; durable && !loc.legacy && fs.pack != nil && meta != nil {
		frame = make([]byte, loc.off-loc.frame+int64(meta.Length))
		n, _ := fs.pack.ReadAt(frame, loc.frame)
		frame = frame[:n]
	}
	delete(fs.metas, hash)
	delete(fs.data, hash)
	delete(fs.where, hash)
	fs.mu.Unlock()
	switch {
	case durable && loc.legacy:
		fs.quarantineLegacy(hash)
	case frame != nil:
		// Best effort: the blob is already evicted, and the frame stays
		// in the pack.
		_ = fs.quarantineBytes(quarantineName(hash, loc.frame), frame)
	}
}

// quarantineBytes copies bytes of the pack to <dir>/quarantine/name.
func (fs *fileStore) quarantineBytes(name string, b []byte) error {
	qdir := filepath.Join(fs.db.dir, "quarantine")
	if err := fs.db.fs().MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	return fs.db.fs().WriteFile(filepath.Join(qdir, name), b, 0o644)
}

// quarantineLegacy moves a legacy pair into <dir>/quarantine/, so a
// future load never mistakes it for good content.
func (fs *fileStore) quarantineLegacy(hash string) {
	fsys := fs.db.fs()
	qdir := filepath.Join(fs.db.dir, "quarantine")
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	for _, ext := range []string{".blob", ".meta"} {
		src := filepath.Join(fs.dir(), hash+ext)
		if _, err := fsys.ReadFile(src); err != nil && os.IsNotExist(err) {
			continue
		}
		if err := fsys.Rename(src, filepath.Join(qdir, hash+ext)); err != nil {
			_ = fsys.Remove(src) // rename across a faulted path: at least stop serving it
		}
	}
}

// hashes returns every stored content hash, for the scrubber's walk.
func (fs *fileStore) hashes() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.metas))
	for h := range fs.metas {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// load restores the blobs under dir: the legacy pairs first, then the
// pack, whose frames are newer and so win for a hash stored both ways.
func (fs *fileStore) load(dir string) error {
	if err := fs.loadLegacy(dir); err != nil {
		return err
	}
	return fs.loadPack(filepath.Join(dir, packName))
}

// loadPack replays the pack (see pack.go), sets aside what cannot be
// served, and opens the pack for appending after its valid prefix.
func (fs *fileStore) loadPack(path string) error {
	fsys := fs.db.fs()
	data, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	s := scanPack(data)
	fs.mu.Lock()
	for _, fr := range s.frames {
		if !fr.ok {
			// Corrupt content (bit rot) or a damaged header: keep the
			// bytes for forensics rather than refusing to open the store.
			// An earlier or later good frame for the hash still serves.
			_ = fs.quarantineBytes(quarantineName(fr.meta.Hash, fr.frame), data[fr.frame:fr.off+fr.n])
			continue
		}
		m := fr.meta
		fs.metas[m.Hash] = &m
		fs.data[m.Hash] = splitChunks(data[fr.off : fr.off+fr.n : fr.off+fr.n])
		fs.where[m.Hash] = blobLoc{frame: fr.frame, off: fr.off}
	}
	fs.mu.Unlock()
	if s.garbage {
		// Nothing past an unparsable header can be framed, but those
		// bytes may hold acknowledged frames: they are copied aside
		// before the cut, never dropped silently.
		if err := fs.quarantineBytes(quarantineName("", s.end), data[s.end:]); err != nil {
			return fmt.Errorf("database: blob pack: set aside unframed tail: %w", err)
		}
	}
	f, err := openAppend(fsys, path, s.end)
	if err != nil {
		return fmt.Errorf("database: blob pack: %w", err)
	}
	fs.pack, fs.packSize = f, s.end
	return nil
}

// loadLegacy restores the <hash>.blob/.meta pairs stores wrote before
// the pack. They are read where they are and never rewritten. A
// current-format blob is raw bytes; an older one is base64 text. The
// two are told apart by hashing: content is stored under its own MD5,
// so the raw bytes match meta.Hash iff the blob is raw.
func (fs *fileStore) loadLegacy(dir string) error {
	fsys := fs.db.fs()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".meta") {
			continue
		}
		mj, err := fsys.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		var meta FileMeta
		if err := json.Unmarshal(mj, &meta); err != nil {
			return err
		}
		raw, err := fsys.ReadFile(filepath.Join(dir, meta.Hash+".blob"))
		if err != nil {
			return err
		}
		data := raw
		if storage.HashBytes(raw) != meta.Hash {
			dec, derr := base64.StdEncoding.DecodeString(strings.TrimSpace(string(raw)))
			if derr != nil || storage.HashBytes(dec) != meta.Hash {
				// Corrupt content (torn write, bit rot). Quarantine it
				// rather than refusing to open the store: the blob is
				// never served.
				fs.quarantineLegacy(meta.Hash)
				continue
			}
			data = dec
		}
		m := meta
		fs.mu.Lock()
		fs.metas[meta.Hash] = &m
		fs.data[meta.Hash] = splitChunks(data)
		fs.where[meta.Hash] = blobLoc{legacy: true}
		fs.mu.Unlock()
	}
	return nil
}
