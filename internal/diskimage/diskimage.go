// Package diskimage is the Packer analogue: it builds simulated disk
// images from declarative templates. A template names a base OS
// (userland generation), a preseed configuration, and a list of
// provisioners that install files and benchmark suites; building it
// yields a deterministic Image whose serialized form is stored as a disk
// image artifact. As with gem5-resources, the template itself documents
// how the image was constructed and suffices to rebuild it bit-for-bit.
package diskimage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"gem5art/internal/sim/isa"
	"gem5art/internal/workloads"
)

// Provisioner is one build step.
type Provisioner struct {
	// Type selects the step: "file" writes Content at Dest; "benchmarks"
	// installs a suite ("parsec", "npb", "gapbs", "spec", "boot-exit")
	// under /benchmarks/<suite>/.
	Type    string
	Dest    string
	Content []byte
	Suite   string
}

// Template declares how to build an image, mirroring a Packer script
// plus an Ubuntu preseed.
type Template struct {
	Name    string
	OS      workloads.OSImage
	Preseed map[string]string // e.g. {"locale": "en_US", "user": "gem5"}
	Steps   []Provisioner
}

// Image is a built disk image: a flat file tree plus build metadata.
type Image struct {
	Name  string
	OS    string
	Files map[string][]byte
}

// Build runs the template deterministically.
func Build(t Template) (*Image, error) {
	if t.Name == "" {
		return nil, fmt.Errorf("diskimage: template has no name")
	}
	img := &Image{Name: t.Name, OS: t.OS.Name, Files: map[string][]byte{}}

	// Base system files, like an Ubuntu server install.
	img.Files["/etc/os-release"] = []byte(fmt.Sprintf(
		"NAME=Ubuntu\nVERSION=%s\nKERNEL=%s\nGCC=%s\n", t.OS.Name, t.OS.Kernel, t.OS.GCC))
	img.Files["/boot/vmlinux"] = []byte("vmlinux-" + t.OS.Kernel)
	preseedKeys := make([]string, 0, len(t.Preseed))
	for k := range t.Preseed {
		preseedKeys = append(preseedKeys, k)
	}
	sort.Strings(preseedKeys)
	var ps strings.Builder
	for _, k := range preseedKeys {
		fmt.Fprintf(&ps, "%s=%s\n", k, t.Preseed[k])
	}
	img.Files["/etc/preseed.cfg"] = []byte(ps.String())

	for i, step := range t.Steps {
		switch step.Type {
		case "file":
			if step.Dest == "" {
				return nil, fmt.Errorf("diskimage: %s: step %d: file provisioner needs Dest", t.Name, i)
			}
			img.Files[step.Dest] = append([]byte(nil), step.Content...)
		case "benchmarks":
			if err := installSuite(img, step.Suite, t.OS); err != nil {
				return nil, fmt.Errorf("diskimage: %s: step %d: %w", t.Name, i, err)
			}
		default:
			return nil, fmt.Errorf("diskimage: %s: step %d: unknown provisioner %q", t.Name, i, step.Type)
		}
	}
	return img, nil
}

// installSuite writes a suite's benchmark descriptors and reference
// binaries into the image, the way gem5-resources images ship compiled
// benchmarks.
func installSuite(img *Image, suite string, os workloads.OSImage) error {
	put := func(path string, data []byte) { img.Files[path] = data }
	switch suite {
	case "parsec":
		for _, app := range workloads.ParsecApps() {
			desc, err := json.Marshal(app)
			if err != nil {
				return err
			}
			put("/benchmarks/parsec/"+app.Name+".desc", desc)
			// Reference single-thread binary so the image carries real,
			// hashable executables.
			put("/benchmarks/parsec/"+app.Name, isa.Encode(app.Programs(os, 1)[0]))
		}
	default:
		benches, err := workloads.ImageBenchmarks(suite)
		if err != nil {
			return err
		}
		for _, b := range benches {
			p, err := workloads.ImageProgram(suite, b)
			if err != nil {
				return err
			}
			put("/benchmarks/"+suite+"/"+b, isa.Encode(p))
		}
	}
	return nil
}

// Serialization format: "G5IMG1", then name, OS, and a sorted sequence
// of (path, content) entries, each length-prefixed. Sorted entries make
// the byte stream — and therefore the artifact hash — deterministic.

var magic = []byte("G5IMG1")

// Serialize renders the image to bytes for artifact storage.
func (img *Image) Serialize() []byte {
	var out []byte
	out = append(out, magic...)
	out = appendString(out, img.Name)
	out = appendString(out, img.OS)
	paths := make([]string, 0, len(img.Files))
	for p := range img.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(paths)))
	out = append(out, cnt[:]...)
	for _, p := range paths {
		out = appendString(out, p)
		out = appendBytes(out, img.Files[p])
	}
	return out
}

// Parse reverses Serialize.
func Parse(data []byte) (*Image, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("diskimage: bad magic")
	}
	data = data[len(magic):]
	name, data, err := readString(data)
	if err != nil {
		return nil, err
	}
	osName, data, err := readString(data)
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("diskimage: truncated count")
	}
	count := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	// Every entry carries two 4-byte length prefixes, so a count the
	// remaining bytes cannot hold is corrupt; checked before the count
	// sizes the map.
	if count > len(data)/8 {
		return nil, fmt.Errorf("diskimage: %d entries do not fit in %d bytes", count, len(data))
	}
	img := &Image{Name: name, OS: osName, Files: make(map[string][]byte, count)}
	for i := 0; i < count; i++ {
		var p string
		p, data, err = readString(data)
		if err != nil {
			return nil, fmt.Errorf("diskimage: entry %d: %w", i, err)
		}
		var b []byte
		b, data, err = readBytes(data)
		if err != nil {
			return nil, fmt.Errorf("diskimage: entry %d: %w", i, err)
		}
		img.Files[p] = b
	}
	return img, nil
}

// ReadFile returns one file from the image.
func (img *Image) ReadFile(path string) ([]byte, error) {
	b, ok := img.Files[path]
	if !ok {
		return nil, fmt.Errorf("diskimage: %s: no file %q", img.Name, path)
	}
	return b, nil
}

// List returns all paths in sorted order.
func (img *Image) List() []string {
	paths := make([]string, 0, len(img.Files))
	for p := range img.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func appendString(out []byte, s string) []byte { return appendBytes(out, []byte(s)) }

func appendBytes(out, b []byte) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
	out = append(out, n[:]...)
	return append(out, b...)
}

func readString(data []byte) (string, []byte, error) {
	b, rest, err := readBytes(data)
	return string(b), rest, err
}

func readBytes(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("truncated length")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < n {
		return nil, nil, fmt.Errorf("truncated payload: want %d, have %d", n, len(data))
	}
	return data[:n:n], data[n:], nil
}
