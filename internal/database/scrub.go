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
// evicted from memory so they are never served again. Nothing repairs
// them: no replica holds blobs (replication ships collection journals
// only), so a quarantined blob is missing to every later reader.
// Journal and snapshot damage is reported, not rewritten — the
// journal's torn-tail truncation at the next open is the recovery path
// for those.
//
// There is one pass: every scrub, on demand or from the Scrubber,
// re-reads every journal up to its writer's acknowledged extent, every
// snapshot and every blob. It remembers nothing between passes, so a
// byte that rots after one pass verified it is found by the next.

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

	Degraded string `json:"degraded,omitempty"` // the store's degraded reason, if any
}

// Scrub walks the store's durable state once, verifying journals,
// snapshots, and blob content hashes. Corrupt blobs are quarantined;
// structural journal or snapshot damage is counted for the report.
// Every pass re-reads every byte, so rot in bytes an earlier pass
// verified is found by the next one. In-memory stores scrub trivially
// clean.
func (db *DB) Scrub() *ScrubReport {
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
	db.scrubCollections(rep)
	db.scrubBlobs(rep)
	return rep
}

// scrubCollections re-reads every collection's journal and snapshot
// from disk and verifies their structure. The collection lock is held
// only to capture the writer's acknowledged extent and generation.
func (db *DB) scrubCollections(rep *ScrubReport) {
	fs := db.fs()
	for _, c := range db.snapshot() {
		lockStart := time.Now()
		c.mu.RLock()
		rep.LockWait += time.Since(lockStart)
		name := c.name
		var extent int64 = -1
		var gen uint64
		if c.journal != nil {
			extent = c.journal.size
			gen = c.journal.gen
		}
		c.mu.RUnlock()
		rep.Collections++

		// Journal: every line up to the writer's acknowledged extent must
		// frame-validate. Verification stops at that extent: bytes beyond
		// it are appends in flight, not torn tails. A valid prefix
		// shorter than the bytes read, or than the extent, is a torn
		// journal: committed records were damaged or are missing.
		if data, err := readJournalTail(fs, journalPath(db.dir, name), extent); err == nil {
			valid, good := countValidRecords(data)
			rep.JournalRecords += valid
			if good < int64(len(data)) || good < extent {
				// A compaction can reset the file between capturing the
				// writer's extent and reading it; re-check the generation
				// before declaring damage.
				lockStart = time.Now()
				c.mu.RLock()
				rep.LockWait += time.Since(lockStart)
				stale := c.journal != nil && c.journal.gen != gen
				c.mu.RUnlock()
				if !stale {
					rep.TornJournals++
				}
			}
		}

		// Snapshot: every line must parse as a JSON document.
		snapPath := filepath.Join(db.dir, "collections", name+".jsonl")
		if data, err := fs.ReadFile(snapPath); err == nil && !snapshotParses(data) {
			rep.BadSnapshots++
		}
	}
}

// countValidRecords frames data and returns the number of valid
// records plus the byte length of the valid prefix. Validation is the
// CRC frame only — the checksum attests the payload bytes, and the
// payload parsed as JSON when it was written — so a scrub pass costs a
// checksum per record, not a full decode.
func countValidRecords(data []byte) (valid int, good int64) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 || !validJournalFrame(data[:nl]) {
			break
		}
		valid++
		good += int64(nl + 1)
		data = data[nl+1:]
	}
	return valid, good
}

// readJournalTail reads the first extent bytes of the journal (the
// writer's acknowledged size; extent < 0 reads to EOF). A file shorter
// than extent is returned short, for the caller's torn-journal check.
func readJournalTail(fs storage.FS, path string, extent int64) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if extent >= 0 {
		r = io.LimitReader(f, extent)
	}
	return io.ReadAll(r)
}

// validJournalFrame reports whether one journal line's CRC matches its
// payload (the cheap half of decodeJournalLine).
func validJournalFrame(line []byte) bool {
	want, ok := parseCRC(line)
	return ok && crc32.ChecksumIEEE(line[9:]) == want
}

// snapshotParses verifies every snapshot line is well-formed JSON.
// json.Valid is a pure syntax scan — no allocation, roughly an order
// of magnitude cheaper than unmarshaling.
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
// are quarantined.
func (db *DB) scrubBlobs(rep *ScrubReport) {
	for _, hash := range db.files.hashes() {
		raw, err := db.files.readDurable(hash)
		if errors.Is(err, os.ErrClosed) {
			return // the store closed under the pass: nothing left to verify
		}
		rep.Blobs++
		if err == nil && blobMatches(raw, hash) {
			continue
		}
		rep.Corrupt++
		db.files.quarantine(hash)
		rep.Quarantined = append(rep.Quarantined, hash)
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
	db *DB

	mu   sync.Mutex
	last *ScrubReport

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartScrubber launches a background integrity scrubber over db.
func StartScrubber(db *DB, interval time.Duration) *Scrubber {
	if interval <= 0 {
		interval = 5 * time.Minute
	}
	s := &Scrubber{db: db, stop: make(chan struct{}), done: make(chan struct{})}
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
// report.
func (s *Scrubber) ScrubNow() *ScrubReport {
	rep := s.db.Scrub()
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
