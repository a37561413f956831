package database

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"gem5art/internal/database/storage"
)

// FuzzJournal replays arbitrary bytes as a collection journal, through
// open-time replay (replayJournal) and the scrubber's frame count
// (countValidRecords). Neither may panic. Replay's valid prefix ends at
// a newline and never runs past scrub's, and the two are equal when
// every CRC-valid payload decodes as a record: replay accepts exactly
// the lines scrub does, plus the decode. The records replay returns,
// and one more carrying the input, written back through
// journalWriter.append replay as they were written. The committed
// seeds under testdata/fuzz/FuzzJournal are a clean journal, a torn
// tail, a mid-journal corruption, a partly persisted batch frame, an
// uppercase-hex CRC and a byte of invalid UTF-8.
func FuzzJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.wal")
		if err := storage.OSFS.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, goodBytes, err := replayJournal(storage.OSFS, path)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		valid, good := countValidRecords(data)
		if goodBytes > 0 && data[goodBytes-1] != '\n' {
			t.Fatalf("replay's valid prefix %d ends mid-line", goodBytes)
		}
		if goodBytes > good {
			t.Fatalf("replay accepted %d bytes, scrub only %d", goodBytes, good)
		}
		if recordsDecode(data[:good]) && (goodBytes != good || len(recs) != valid) {
			t.Fatalf("replay accepted %d bytes and %d records, scrub %d and %d", goodBytes, len(recs), good, valid)
		}

		written := append(recs, journalRecord{Op: opUpdate, ID: string(data), Set: Doc{"raw": string(data)}})
		out := filepath.Join(dir, "out.wal")
		w, err := openJournalWriter(storage.OSFS, out, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.append(written...); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		again, againBytes, err := replayJournal(storage.OSFS, out)
		if err != nil {
			t.Fatalf("replay of the written journal: %v", err)
		}
		// What was written is the records as JSON carries them: invalid
		// UTF-8 becomes U+FFFD, an empty document is omitted.
		j, err := json.Marshal(written)
		if err != nil {
			t.Fatal(err)
		}
		var want []journalRecord
		if err := json.Unmarshal(j, &want); err != nil {
			t.Fatal(err)
		}
		if againBytes != w.size || !reflect.DeepEqual(again, want) {
			t.Fatalf("wrote %d bytes of %+v, replayed %d bytes of %+v", w.size, want, againBytes, again)
		}
	})
}

// recordsDecode reports whether every line of a CRC-valid prefix
// decodes as a journal record.
func recordsDecode(prefix []byte) bool {
	for _, line := range bytes.SplitAfter(prefix, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if json.Unmarshal(line[9:len(line)-1], &rec) != nil {
			return false
		}
	}
	return true
}
