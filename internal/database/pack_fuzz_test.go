package database

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBlobPack replays arbitrary bytes as a store's blob pack, alone
// and after a valid pack. Replay must never panic and never serve a
// blob whose bytes do not hash to its name, and whatever follows a
// valid pack, every frame of that valid prefix is served. The
// committed seeds under testdata/fuzz/FuzzBlobPack are a torn header,
// a short content, a CRC flip, a duplicate hash and an empty pack.
func FuzzBlobPack(f *testing.F) {
	var valid []byte
	want := map[string][]byte{}
	for i := 0; i < 3; i++ {
		content := []byte(fmt.Sprintf("blob %d of the valid prefix\n", i))
		meta := &FileMeta{Name: fmt.Sprintf("f%d", i), Hash: HashBytes(content), Length: len(content), Chunks: 1}
		hdr, err := packHeader(meta, content)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(append(valid, hdr...), content...)
		want[meta.Hash] = content
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		for _, prefix := range [][]byte{nil, valid} {
			dir := t.TempDir()
			files := filepath.Join(dir, "files")
			if err := os.MkdirAll(files, 0o755); err != nil {
				t.Fatal(err)
			}
			pack := append(append([]byte(nil), prefix...), tail...)
			if err := os.WriteFile(filepath.Join(files, packName), pack, 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for _, m := range db.Files().List() {
				data, err := db.Files().Get(m.Hash)
				if err != nil || HashBytes(data) != m.Hash || len(data) != m.Length {
					t.Fatalf("served %s as %d bytes hashing to %s (%v)", m.Hash, len(data), HashBytes(data), err)
				}
			}
			if prefix != nil {
				for h, content := range want {
					if data, err := db.Files().Get(h); err != nil || !bytes.Equal(data, content) {
						t.Fatalf("valid-prefix blob %s = (%q, %v)", h, data, err)
					}
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
