package database

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gem5art/internal/database/dbtest"
)

// TestFileStoreReadsLegacyBase64Blobs: stores written before the blob
// pack hold <hash>.blob/.meta pairs — base64 text in the oldest, raw
// bytes later. A mixed store (both kinds of pair plus a pack) loads,
// serves all three, scrubs clean, and never rewrites a pair.
func TestFileStoreReadsLegacyBase64Blobs(t *testing.T) {
	dir := t.TempDir()
	files := filepath.Join(dir, "files")
	if err := os.MkdirAll(files, 0o755); err != nil {
		t.Fatal(err)
	}
	writePair := func(name string, content, onDisk []byte) string {
		hash := HashBytes(content)
		if err := os.WriteFile(filepath.Join(files, hash+".blob"), onDisk, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, _ := json.Marshal(FileMeta{Name: name, Hash: hash, Length: len(content), Chunks: 1})
		if err := os.WriteFile(filepath.Join(files, hash+".meta"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		return hash
	}
	content := []byte("legacy vmlinux bytes")
	enc := base64.StdEncoding.EncodeToString(content)
	hash := writePair("vmlinux", content, []byte(enc))
	rawContent := []byte{0x7f, 'E', 'L', 'F', 'r', 'a', 'w'}
	rawHash := writePair("disk.img", rawContent, rawContent)
	packed := []byte("a blob stored after the pack existed")

	db := MustOpen(dir).(*DB)
	packHash, err := db.Files().Put("stats.txt", packed)
	if err != nil {
		t.Fatal(err)
	}
	check := func(db Store) {
		t.Helper()
		for h, want := range map[string][]byte{hash: content, rawHash: rawContent, packHash: packed} {
			got, err := db.Files().Get(h)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("blob %s read back as %q, want %q", h, got, want)
			}
		}
	}
	check(db)
	m, ok := db.Files().Stat(hash)
	if !ok || m.Name != "vmlinux" {
		t.Fatalf("legacy meta = %+v, %v", m, ok)
	}
	if rep := db.Scrub(); rep.Blobs != 3 || rep.Corrupt != 0 {
		t.Fatalf("scrub of the mixed store = %+v, want 3 blobs and none corrupt", rep)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := MustOpen(dir).(*DB)
	defer re.Close()
	check(re)
	if rep := re.Scrub(); rep.Blobs != 3 || rep.Corrupt != 0 {
		t.Fatalf("scrub after reopen = %+v, want 3 blobs and none corrupt", rep)
	}
	// The legacy pairs must not be rewritten just because we opened them.
	raw, err := os.ReadFile(filepath.Join(files, hash+".blob"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, []byte(enc)) {
		t.Fatal("open rewrote a legacy blob")
	}
	if n := packFrames(t, dir, hash) + packFrames(t, dir, rawHash); n != 0 {
		t.Fatalf("legacy blobs were copied into the pack (%d frames)", n)
	}
}

// TestFileStoreWritesRawBlobs: new blobs are written through at Put
// time as raw bytes in a pack frame, durable before any Flush.
func TestFileStoreWritesRawBlobs(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(dir)
	content := []byte{0x7f, 'E', 'L', 'F', 0, 1, 2, 3} // binary, not base64-safe
	hash, _ := db.Files().Put("kernel", content)
	if raw := packContent(t, dir, hash); !bytes.Equal(raw, content) {
		t.Fatalf("blob on disk is %q, want raw bytes", raw)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := MustOpen(dir)
	defer db2.Close()
	got, err := db2.Files().Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("raw blob lost across reopen")
	}
}

// putBlobs stores n distinct blobs and returns their hashes.
func putBlobs(t *testing.T, db Store, n int) []string {
	t.Helper()
	hashes := make([]string, n)
	for i := range hashes {
		h, err := db.Files().Put(fmt.Sprintf("f%d", i), blobContent(i))
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	return hashes
}

func blobContent(i int) []byte { return []byte(fmt.Sprintf("content of blob %d\n", i)) }

// packFrames counts the complete frames in the store's pack that name
// hash. A store with no pack has none.
func packFrames(t *testing.T, dir, hash string) int {
	t.Helper()
	_, s := readPack(t, dir)
	n := 0
	for _, fr := range s.frames {
		if fr.meta.Hash == hash {
			n++
		}
	}
	return n
}

// packContent returns the content of the last pack frame that names
// hash, as it is on disk.
func packContent(t *testing.T, dir, hash string) []byte {
	t.Helper()
	data, s := readPack(t, dir)
	var content []byte
	for _, fr := range s.frames {
		if fr.meta.Hash == hash {
			content = data[fr.off : fr.off+fr.n]
		}
	}
	if content == nil {
		t.Fatalf("no pack frame names %s", hash)
	}
	return content
}

// readPack reads and replays the store's pack as it is on disk.
func readPack(t *testing.T, dir string) ([]byte, packScan) {
	t.Helper()
	data, err := os.ReadFile(dbtest.PackPath(dir))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return data, scanPack(data)
}

// TestPackTornTailTruncated is the crash case: the pack ends partway
// through a frame, a Put that never returned. Wherever the cut falls,
// replay takes it for a torn frame, not damage; the reopen serves every
// frame before it, cuts the torn bytes off, and appends after them.
func TestPackTornTailTruncated(t *testing.T) {
	for _, where := range []string{"content", "header"} {
		dir := t.TempDir()
		db := MustOpen(dir)
		hashes := putBlobs(t, db, 3)
		db.Close()
		pack := dbtest.PackPath(dir)
		data, err := os.ReadFile(pack)
		if err != nil {
			t.Fatal(err)
		}
		last := scanPack(data).frames[2]
		for cut := last.frame + 1; cut < last.off+last.n; cut++ {
			if s := scanPack(data[:cut]); s.garbage || s.end != last.frame || len(s.frames) != 2 {
				t.Fatalf("pack cut at %d of the last frame [%d, %d): end %d, %d frames, garbage %v",
					cut, last.frame, last.off+last.n, s.end, len(s.frames), s.garbage)
			}
		}
		torn := last.off + 1
		if where == "header" {
			torn = last.frame + 10
		}
		if err := os.WriteFile(pack, data[:torn], 0o644); err != nil {
			t.Fatal(err)
		}
		re := MustOpen(dir)
		for i, h := range hashes[:2] {
			if got, err := re.Files().Get(h); err != nil || !bytes.Equal(got, blobContent(i)) {
				t.Fatalf("torn %s: frame %d = (%q, %v)", where, i, got, err)
			}
		}
		if re.Files().Exists(hashes[2]) {
			t.Fatalf("torn %s: torn frame served", where)
		}
		h, err := re.Files().Put("after", []byte("appended after the cut"))
		if err != nil {
			t.Fatal(err)
		}
		re.Close()
		again := MustOpen(dir)
		if got, err := again.Files().Get(h); err != nil || string(got) != "appended after the cut" {
			t.Fatalf("torn %s: blob appended after the cut = (%q, %v)", where, got, err)
		}
		if len(again.Files().List()) != 3 {
			t.Fatalf("torn %s: %d blobs after reopen, want 3", where, len(again.Files().List()))
		}
		again.Close()
		if q, _ := os.ReadDir(filepath.Join(dir, "quarantine")); len(q) != 0 {
			t.Fatalf("torn %s: a torn tail was quarantined: %v", where, q)
		}
	}
}

// TestPackUnframedTailSetAside: a damaged header line ends what can be
// framed — one that no longer parses, one whose length now runs past
// the end of the pack, one whose newline rotted. The frames before it
// load; the bytes from it on are copied to quarantine/ before the pack
// is cut there, so acknowledged bytes are never dropped silently.
func TestPackUnframedTailSetAside(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame int                            // the damaged frame
		rot   func(hdr []byte, fr packFrame) // damages the header in place
	}{
		{"crc-not-hex", 1, func(hdr []byte, _ packFrame) { hdr[0] = 'X' }},
		{"length-past-end", 1, func(hdr []byte, _ packFrame) { hdr[9] = '6' }}, // 2048 -> 6048
		{"newline-lost", 2, func(hdr []byte, fr packFrame) { hdr[fr.off-fr.frame-1] = ' ' }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db := MustOpen(dir)
			var hashes []string
			for i := 0; i < 3; i++ {
				// 2 KiB, no newline: only the header lines frame the pack.
				h, err := db.Files().Put(fmt.Sprintf("cpt.%d", i), bytes.Repeat([]byte{'a' + byte(i)}, 2048))
				if err != nil {
					t.Fatal(err)
				}
				hashes = append(hashes, h)
			}
			db.Close()
			pack := dbtest.PackPath(dir)
			data, err := os.ReadFile(pack)
			if err != nil {
				t.Fatal(err)
			}
			fr := scanPack(data).frames[tc.frame]
			bad := append([]byte(nil), data...)
			tc.rot(bad[fr.frame:fr.off], fr)
			if err := os.WriteFile(pack, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			re := MustOpen(dir)
			defer re.Close()
			for i, h := range hashes {
				if i < tc.frame {
					if got, err := re.Files().Get(h); err != nil || len(got) != 2048 {
						t.Fatalf("frame %d before the damage = (%d bytes, %v)", i, len(got), err)
					}
				} else if re.Files().Exists(h) {
					t.Fatalf("blob %d past a damaged header was served", i)
				}
			}
			set, err := os.ReadFile(filepath.Join(dir, "quarantine", fmt.Sprintf("blobs.pack.%d", fr.frame)))
			if err != nil || !bytes.Equal(set, bad[fr.frame:]) {
				t.Fatalf("unframed tail not set aside whole: %d bytes, %v", len(set), err)
			}
			if fi, err := os.Stat(pack); err != nil || fi.Size() != fr.frame {
				t.Fatalf("pack not cut at the damage: %v, %v", fi, err)
			}
		})
	}
}

// TestPackLastGoodFrameWins: a pack can hold several frames for one
// hash (a Put after a quarantine appends one). The last good frame's meta wins,
// and a corrupt frame after it does not displace it.
func TestPackLastGoodFrameWins(t *testing.T) {
	dir := t.TempDir()
	content := []byte("one content, three frames")
	var pack []byte
	for _, name := range []string{"first", "second", "rotten"} {
		meta := &FileMeta{Name: name, Hash: HashBytes(content), Length: len(content), Chunks: 1}
		hdr, err := packHeader(meta, content)
		if err != nil {
			t.Fatal(err)
		}
		pack = append(append(pack, hdr...), content...)
	}
	pack[len(pack)-1] ^= 0xff // rot the third frame
	if err := os.MkdirAll(filepath.Join(dir, "files"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dbtest.PackPath(dir), pack, 0o644); err != nil {
		t.Fatal(err)
	}
	db := MustOpen(dir).(*DB)
	defer db.Close()
	m, ok := db.Files().Stat(HashBytes(content))
	if !ok || m.Name != "second" {
		t.Fatalf("Stat = %+v, %v; want the second frame's meta", m, ok)
	}
	if rep := db.Scrub(); rep.Blobs != 1 || rep.Corrupt != 0 {
		t.Fatalf("scrub = %+v, want the winning frame verified clean", rep)
	}
}
