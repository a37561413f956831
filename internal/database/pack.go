package database

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"gem5art/internal/database/storage"
)

// The blob pack is the persistent file store's one data file,
// <dir>/files/blobs.pack. Every blob a Put archives is one frame
// appended to it and fsynced before Put returns:
//
//	<crc32 hex> <content length> <FileMeta JSON>\n<content bytes>
//
// The CRC covers the meta JSON and the content, and the content must
// also hash to meta.Hash, so a frame verifies without trusting its
// header. Blobs are never deleted from the pack: a scrub repair
// appends a new frame, and at load the last good frame for a hash
// wins.
//
// Replay (scanPack) walks the frames from the start:
//   - a complete frame that fails its CRC or content hash is reported
//     bad; the loader copies it to quarantine/ and serves nothing from
//     it, and the walk goes on after it;
//   - a final frame cut short — in its header line or its content — is
//     a Put that never returned, and the pack is truncated before it;
//   - a header line that does not parse, or whose length runs past the
//     end while its meta names another length, ends the walk, as
//     nothing after it can be framed; the remainder is reported as
//     garbage, which the loader copies to quarantine/ before cutting it
//     off.

// packName is the pack's file name under <dir>/files/.
const packName = "blobs.pack"

// packFrame is one complete frame found by scanPack.
type packFrame struct {
	meta  FileMeta
	frame int64 // pack offset of the header line
	off   int64 // pack offset of the content
	n     int64 // content length
	ok    bool  // the CRC and the content hash verify
}

// packScan is what replaying a pack's bytes found.
type packScan struct {
	frames  []packFrame // every complete frame, good or bad, in file order
	end     int64       // end of the last complete frame: the pack's valid length
	garbage bool        // the bytes past end are damage, not a frame a Put was cut short in
}

// scanPack replays a pack's bytes. It never allocates by a header's
// claims: frame contents are bounds-checked slices of data.
func scanPack(data []byte) packScan {
	var s packScan
	for s.end < int64(len(data)) {
		rest := data[s.end:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// A Put cut short in its header line left a prefix of one;
			// anything else here is damage, such as a rotted newline.
			s.garbage = !headerPrefix(rest)
			return s
		}
		crc, n, mj, ok := parsePackHeader(rest[:nl])
		if !ok {
			s.garbage = true
			return s
		}
		var fr packFrame
		metaOK := json.Unmarshal(mj, &fr.meta) == nil
		body := rest[nl+1:]
		if n > int64(len(body)) {
			// A Put cut short in its content wrote its whole header,
			// so the meta agrees with the length. A length that runs
			// past the end with a meta that disagrees is a damaged
			// header, which may hide acknowledged frames after it.
			s.garbage = !metaOK || int64(fr.meta.Length) != n
			return s
		}
		content := body[:n]
		fr.frame, fr.off, fr.n = s.end, s.end+int64(nl)+1, n
		fr.ok = metaOK && crc32.Update(crc32.ChecksumIEEE(mj), crc32.IEEETable, content) == crc &&
			int64(fr.meta.Length) == n && storage.HashBytes(content) == fr.meta.Hash
		s.frames = append(s.frames, fr)
		s.end = fr.off + n
	}
	return s
}

// headerPrefix reports whether b, which holds no newline, can be the
// start of a header line: "<8 hex digits> <digits> " and then a JSON
// object, unfinished or with nothing after it.
func headerPrefix(b []byte) bool {
	i := min(len(b), 8)
	if !isLowerHex(string(b[:i])) {
		return false
	}
	if i == len(b) {
		return true
	}
	if b[i] != ' ' {
		return false
	}
	i++
	digits := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	if i == len(b) {
		return true
	}
	if i == digits || b[i] != ' ' {
		return false
	}
	var meta FileMeta
	mj := b[i+1:]
	dec := json.NewDecoder(bytes.NewReader(mj))
	switch err := dec.Decode(&meta); err {
	case io.EOF, io.ErrUnexpectedEOF:
		return true
	case nil: // the write stopped just short of the newline
		return dec.InputOffset() == int64(len(mj))
	}
	return false
}

// packHeader frames a blob's header line.
func packHeader(meta *FileMeta, data []byte) ([]byte, error) {
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	crc := crc32.Update(crc32.ChecksumIEEE(mj), crc32.IEEETable, data)
	hdr := fmt.Appendf(make([]byte, 0, len(mj)+32), "%08x %d ", crc, len(data))
	hdr = append(hdr, mj...)
	return append(hdr, '\n'), nil
}

// parsePackHeader splits a header line (without its newline) into the
// CRC, the content length and the meta JSON.
func parsePackHeader(line []byte) (crc uint32, n int64, meta []byte, ok bool) {
	crc, ok = parseCRC(line)
	if !ok {
		return 0, 0, nil, false
	}
	rest := line[9:]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 1 {
		return 0, 0, nil, false
	}
	n, err := strconv.ParseInt(string(rest[:sp]), 10, 64)
	if err != nil || n < 0 {
		return 0, 0, nil, false
	}
	return crc, n, rest[sp+1:], true
}

// parseCRC decodes the "<8 lowercase hex digits> " prefix that opens a
// journal line and a pack frame header. It is decoded by hand to keep
// the per-record cost allocation-free.
func parseCRC(line []byte) (uint32, bool) {
	if len(line) < 9 || line[8] != ' ' {
		return 0, false
	}
	var crc uint32
	for _, ch := range line[:8] {
		var v uint32
		switch {
		case ch >= '0' && ch <= '9':
			v = uint32(ch - '0')
		case ch >= 'a' && ch <= 'f':
			v = uint32(ch-'a') + 10
		default:
			return 0, false
		}
		crc = crc<<4 | v
	}
	return crc, true
}

// quarantineName names a corrupt blob's bytes under quarantine/: by
// its hash when the (possibly damaged) meta still names a well-formed
// one, otherwise by the pack offset the bytes came from.
func quarantineName(hash string, packOffset int64) string {
	if len(hash) == 32 && isLowerHex(hash) {
		return hash + ".blob"
	}
	return fmt.Sprintf("%s.%d", packName, packOffset)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
