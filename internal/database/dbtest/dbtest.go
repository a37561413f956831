// Package dbtest damages a persistent store's blob pack on disk, for
// tests of load-time quarantine and scrub.
package dbtest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// PackPath is the blob pack of the store in dir.
func PackPath(dir string) string { return filepath.Join(dir, "files", "blobs.pack") }

// RotBlob flips every byte of the last copy of content in the store's
// pack, in place, so the frame that holds it keeps its length and
// framing but fails its CRC and content hash — bit rot, as load and
// Scrub meet it. content must occur nowhere later in the pack. The
// write goes to the same file an open store holds.
func RotBlob(t testing.TB, dir string, content []byte) {
	t.Helper()
	if len(content) == 0 {
		t.Fatal("dbtest: empty content: nothing to rot")
	}
	data, err := os.ReadFile(PackPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.LastIndex(data, content)
	if off < 0 {
		t.Fatalf("dbtest: the pack does not hold %q", content)
	}
	b := bytes.Clone(content)
	for i := range b {
		b[i] ^= 0xff
	}
	f, err := os.OpenFile(PackPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, int64(off)); err != nil {
		t.Fatal(err)
	}
}
