package database

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gem5art/internal/database/storage"
)

// Background integrity scrubbing: reproducibility rests on artifacts
// and journals surviving exactly as recorded, so the engine re-reads
// its own durable state on a cadence and verifies it — journal CRC
// framing, snapshot JSON parse, blob content hashes — instead of
// discovering bit rot the day a result is re-derived from it.
//
// Corrupt blobs are quarantined: set aside under <dir>/quarantine/ and
// evicted from memory so they are never served again, then repaired
// when a RepairSource (the shard standby's file store, wired by
// shard.Fleet) still holds a good copy. Journal and snapshot damage is
// reported, not rewritten — the journal's torn-tail truncation at the
// next open is the recovery path for those.

// RepairSource supplies known-good blob content by hash — typically
// the replicated standby of a shard. Ok is false when the source has
// no (valid) copy.
type RepairSource interface {
	Blob(hash string) (data []byte, ok bool)
}

// FileRepair adapts a storage.FileStore (e.g. a standby's Files()) to
// a RepairSource, re-verifying content against its hash so a corrupt
// replica can never "repair" a primary.
func FileRepair(fs FileStore) RepairSource { return fileRepair{fs} }

type fileRepair struct{ fs FileStore }

func (r fileRepair) Blob(hash string) ([]byte, bool) {
	if r.fs == nil {
		return nil, false
	}
	data, err := r.fs.Get(hash)
	if err != nil || storage.HashBytes(data) != hash {
		return nil, false
	}
	return data, true
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	// LockWait is time spent blocked behind collection writers (a
	// compaction holds the collection lock for its whole snapshot
	// write). It is part of Duration but is idle waiting, not
	// verification work charged to the store.
	LockWait time.Duration `json:"lock_wait"`

	Collections    int `json:"collections"`
	JournalRecords int `json:"journal_records"` // valid records seen across journals
	TornJournals   int `json:"torn_journals"`   // journals with bytes past the valid prefix
	BadSnapshots   int `json:"bad_snapshots"`   // snapshot files that fail to parse

	Blobs       int      `json:"blobs"`
	Corrupt     int      `json:"corrupt"`               // blobs whose content no longer matches their hash
	Quarantined []string `json:"quarantined,omitempty"` // hashes moved to <dir>/quarantine/
	Repaired    []string `json:"repaired,omitempty"`    // hashes restored from the repair source

	Degraded string `json:"degraded,omitempty"` // the store's degraded reason, if any
}

// Scrub walks the store's durable state once, verifying journals,
// snapshots, and blob content hashes. Corrupt blobs are quarantined
// (and repaired from source when possible); structural journal or
// snapshot damage is counted for the report. In-memory stores scrub
// trivially clean.
func (db *DB) Scrub(source RepairSource) *ScrubReport {
	return db.scrubWith(source, nil)
}

// scrubProgress remembers what earlier passes verified, so the
// periodic scrubber only pays for bytes it has not seen: journals are
// verified from the last validated prefix (invalidated by the writer's
// generation whenever compaction resets the file), and blobs —
// content-addressed and immutable — are hashed once per process. A
// full pass (nil progress) re-reads everything and is the periodic
// backstop against rot in already-verified bytes.
type scrubProgress struct {
	journals map[string]journalMark
	blobs    map[string]bool
	buf      []byte // reused tail-read buffer; keeps passes allocation-quiet
}

type journalMark struct {
	gen    uint64
	offset int64 // verified valid-prefix bytes
	snapOK bool  // snapshot parsed clean at this generation
}

func newScrubProgress() *scrubProgress {
	return &scrubProgress{journals: make(map[string]journalMark), blobs: make(map[string]bool)}
}

// scrubWith is Scrub with optional incremental progress.
func (db *DB) scrubWith(source RepairSource, prog *scrubProgress) *ScrubReport {
	start := time.Now()
	rep := &ScrubReport{Start: start.UTC()}
	defer func() {
		rep.Duration = time.Since(start)
	}()
	if err := db.Degraded(); err != nil {
		if deg, ok := err.(*storage.DegradedError); ok {
			rep.Degraded = deg.Reason
		} else {
			rep.Degraded = err.Error()
		}
	}
	if db.dir == "" {
		return rep
	}
	db.scrubCollections(rep, prog)
	db.scrubBlobs(rep, source, prog)
	return rep
}

// scrubCollections re-reads every collection's journal and snapshot
// from disk and verifies their structure. The collection lock is held
// per collection so the on-disk bytes are a stable prefix.
func (db *DB) scrubCollections(rep *ScrubReport, prog *scrubProgress) {
	fs := db.fs()
	var scratch []byte
	bufp := &scratch
	if prog != nil {
		bufp = &prog.buf
	}
	for _, c := range db.snapshot() {
		lockStart := time.Now()
		c.mu.RLock()
		rep.LockWait += time.Since(lockStart)
		name := c.name
		var journalSize int64 = -1
		var journalGen uint64
		var snapFresh bool
		if c.journal != nil {
			journalSize = c.journal.size
			journalGen = c.journal.gen
			snapFresh = c.journal.snapGen != 0 && c.journal.snapGen == journalGen
		}
		c.mu.RUnlock()
		rep.Collections++

		// Journal: every line up to the writer's acknowledged extent must
		// frame-validate. Bytes past the valid prefix are a torn tail —
		// expected only after a crash or an injected torn write. An
		// incremental pass resumes from the last validated prefix —
		// reading only the unseen tail — provided the writer's
		// generation still matches (compaction resets the file and bumps
		// the generation).
		var start int64
		var snapVerified bool
		if prog != nil && journalSize >= 0 {
			// An offset past the acknowledged extent means the writer
			// rewound a failed append since the last pass — re-verify from
			// the top.
			if m, ok := prog.journals[name]; ok && m.gen == journalGen && m.offset <= journalSize {
				start = m.offset
				snapVerified = m.snapOK
			}
			// Right after a compaction the snapshot on disk is bytes this
			// process wrote, fsynced, and renamed moments ago — re-reading
			// them detects nothing a full pass wouldn't. Incremental passes
			// trust the fresh snapshot; rot is the full pass's job.
			if !snapVerified && snapFresh {
				snapVerified = true
			}
		}
		// Verification stops at the writer's acknowledged extent: bytes
		// beyond it are appends in flight, not torn tails, and reading
		// them would spuriously fail the pass (and forfeit its progress)
		// whenever the scrubber races a writer. Incremental passes are
		// additionally bandwidth-throttled so a write-heavy store never
		// pays more than scrubTailBudget of verification IO per pass —
		// the offset carries the remainder to the next pass.
		extent := journalSize
		if prog != nil && journalSize >= 0 && journalSize-start > scrubTailBudget {
			extent = start + scrubTailBudget
		}
		journalClean := false
		torn := false
		if tail, size, err := readJournalTail(fs, journalPath(db.dir, name), start, extent, bufp); err == nil {
			valid, good, corrupt := countValidRecords(tail)
			good += start
			rep.JournalRecords += valid
			capped := extent >= 0 && extent < journalSize
			switch {
			case corrupt:
				// A complete line inside the acknowledged extent failed its
				// CRC frame: committed records were damaged.
				torn = true
			case good < size || (extent >= 0 && good < extent):
				if capped {
					// The bandwidth budget cut a record mid-line; it is the
					// next pass's first record, not a torn tail.
					journalClean = true
					start = good
				} else {
					// Shorter than the writer's acknowledged extent:
					// committed records are missing.
					torn = true
				}
			default:
				journalClean = true
				start = good
			}
		}
		if torn {
			// A compaction can reset the file between capturing the
			// writer's extent and reading it; re-check the generation
			// before declaring damage.
			lockStart = time.Now()
			c.mu.RLock()
			rep.LockWait += time.Since(lockStart)
			stale := c.journal != nil && c.journal.gen != journalGen
			c.mu.RUnlock()
			if !stale {
				rep.TornJournals++
			}
		}

		// Snapshot: every line must parse as a JSON document. The file
		// is immutable between compactions — and a compaction bumps the
		// journal generation — so a clean parse is cached per generation.
		if !snapVerified {
			snapPath := filepath.Join(db.dir, "collections", name+".jsonl")
			snapVerified = true
			if data, err := fs.ReadFile(snapPath); err == nil {
				if !snapshotParses(data) {
					rep.BadSnapshots++
					snapVerified = false
				}
			}
		}
		if prog != nil && journalSize >= 0 && journalClean {
			prog.journals[name] = journalMark{gen: journalGen, offset: start, snapOK: snapVerified}
		}
	}
}

// countValidRecords frames data and returns the number of valid
// records plus the byte length of the valid prefix. Validation is the
// CRC frame only — the checksum attests the payload bytes, and the
// payload parsed as JSON when it was written — so a scrub pass costs a
// checksum per record, not a full decode. corrupt reports whether the
// scan stopped at a complete line that failed its frame (damage), as
// opposed to running out of bytes mid-line (a cut or torn tail).
func countValidRecords(data []byte) (valid int, good int64, corrupt bool) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		if !validJournalFrame(data[:nl]) {
			return valid, good, true
		}
		valid++
		good += int64(nl + 1)
		data = data[nl+1:]
	}
	return valid, good, false
}

// readJournalTail reads the journal's bytes from offset start up to
// extent (the writer's acknowledged size; extent < 0 reads to EOF) and
// reports the absolute offset covered. start 0 is a full read; an
// incremental pass passes its validated prefix so the verified bytes
// are never re-read. buf is a reusable scratch buffer (grown as
// needed) so repeated passes do not allocate.
func readJournalTail(fs storage.FS, path string, start, extent int64, buf *[]byte) (tail []byte, size int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(start, 0); err != nil {
		return nil, 0, err
	}
	if extent < 0 {
		tail, err = io.ReadAll(f)
		if err != nil {
			return nil, 0, err
		}
		return tail, start + int64(len(tail)), nil
	}
	want := int(extent - start)
	if want < 0 {
		want = 0
	}
	if cap(*buf) < want {
		*buf = make([]byte, want)
	}
	b := (*buf)[:want]
	n, err := io.ReadFull(f, b)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // the file is shorter than the acknowledged extent:
		// the caller's torn-tail accounting handles it
	}
	if err != nil {
		return nil, 0, err
	}
	return b[:n], start + int64(n), nil
}

// scrubTailBudget caps how many new journal bytes one incremental
// pass verifies per collection — scrub bandwidth is throttled so
// continuous verification never competes seriously with foreground
// writes; the unverified remainder carries over via the progress
// offset and is caught up on quieter passes (or the periodic full
// pass).
const scrubTailBudget = 256 << 10

// validJournalFrame reports whether one journal line's CRC matches its
// payload (the cheap half of decodeJournalLine).
func validJournalFrame(line []byte) bool {
	want, ok := parseCRC(line)
	return ok && crc32.ChecksumIEEE(line[9:]) == want
}

// snapshotParses verifies every snapshot line is well-formed JSON.
// json.Valid is a pure syntax scan — no allocation, roughly an order
// of magnitude cheaper than unmarshaling — which is what keeps
// re-verifying a freshly-compacted snapshot off the write path's back.
func snapshotParses(data []byte) bool {
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if !json.Valid(line) {
			return false
		}
	}
	return true
}

// scrubBlobs re-reads every blob's durable bytes — its pack frame, or
// a legacy pair's .blob — and verifies its content hash. Corrupt blobs
// are quarantined and, when the source has a good copy, stored again:
// a repaired pack blob is a new frame, which wins over the bad one at
// every later load.
func (db *DB) scrubBlobs(rep *ScrubReport, source RepairSource, prog *scrubProgress) {
	for _, hash := range db.files.hashes() {
		if prog != nil && prog.blobs[hash] {
			continue // content-addressed and already verified this process
		}
		raw, err := db.files.readDurable(hash)
		if errors.Is(err, os.ErrClosed) {
			return // the store closed under the pass: nothing left to verify
		}
		rep.Blobs++
		if err == nil && blobMatches(raw, hash) {
			if prog != nil {
				prog.blobs[hash] = true
			}
			continue
		}
		rep.Corrupt++
		meta, _ := db.files.Stat(hash)
		db.files.quarantine(hash)
		rep.Quarantined = append(rep.Quarantined, hash)
		if source != nil {
			if data, good := source.Blob(hash); good {
				if _, err := db.files.Put(meta.Name, data); err == nil {
					rep.Repaired = append(rep.Repaired, hash)
				}
			}
		}
	}
}

// blobMatches verifies raw against its content hash, accepting the
// base64 format of the oldest legacy pairs.
func blobMatches(raw []byte, hash string) bool {
	if storage.HashBytes(raw) == hash {
		return true
	}
	dec, err := base64.StdEncoding.DecodeString(strings.TrimSpace(string(raw)))
	return err == nil && storage.HashBytes(dec) == hash
}

// Scrubber runs Scrub on an interval in the background. The zero
// interval scrubs every 5 minutes.
type Scrubber struct {
	db     *DB
	source RepairSource

	mu   sync.Mutex
	last *ScrubReport

	// runMu serializes scrub passes; prog and passes are owned by the
	// pass holding it. Every fullScrubEvery-th pass drops the progress
	// and re-reads everything — the backstop against rot in bytes an
	// incremental pass would skip.
	runMu  sync.Mutex
	prog   *scrubProgress
	passes int

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// fullScrubEvery is how often the background scrubber discards its
// incremental progress and re-verifies the entire store.
const fullScrubEvery = 16

// StartScrubber launches a background integrity scrubber over db.
// source may be nil (no repair path — quarantine only).
func StartScrubber(db *DB, interval time.Duration, source RepairSource) *Scrubber {
	if interval <= 0 {
		interval = 5 * time.Minute
	}
	s := &Scrubber{db: db, source: source, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.ScrubNow()
			}
		}
	}()
	return s
}

// ScrubNow runs one synchronous scrub pass and records it as the last
// report. Most passes are incremental (new journal bytes, unseen
// blobs); every fullScrubEvery-th pass re-reads the whole store.
func (s *Scrubber) ScrubNow() *ScrubReport {
	s.runMu.Lock()
	if s.passes%fullScrubEvery == 0 || s.prog == nil {
		s.prog = newScrubProgress()
	}
	s.passes++
	rep := s.db.scrubWith(s.source, s.prog)
	s.runMu.Unlock()
	s.mu.Lock()
	s.last = rep
	s.mu.Unlock()
	return rep
}

// LastReport returns the most recent scrub report, or nil before the
// first pass.
func (s *Scrubber) LastReport() *ScrubReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Close stops the background loop and waits for it to exit.
func (s *Scrubber) Close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// WriteScrubReport writes a scrub report as JSON under dir, for the
// chaos-artifact uploads. Returns the file path.
func WriteScrubReport(dir, name string, rep *ScrubReport) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("scrub-%s.json", name))
	return path, os.WriteFile(path, data, 0o644)
}
