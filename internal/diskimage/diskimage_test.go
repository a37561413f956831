package diskimage

import (
	"bytes"
	"encoding/json"
	"testing"

	"gem5art/internal/database"
	"gem5art/internal/sim/isa"
	"gem5art/internal/workloads"
)

func parsecTemplate(os workloads.OSImage) Template {
	return Template{
		Name:    "parsec-" + os.Name,
		OS:      os,
		Preseed: map[string]string{"user": "gem5", "locale": "en_US"},
		Steps: []Provisioner{
			{Type: "file", Dest: "/home/gem5/runscript.sh", Content: []byte("#!/bin/sh\nparsecmgmt run")},
			{Type: "benchmarks", Suite: "parsec"},
		},
	}
}

func TestBuildParsecImage(t *testing.T) {
	img, err := Build(parsecTemplate(workloads.Ubuntu1804))
	if err != nil {
		t.Fatal(err)
	}
	if img.OS != "ubuntu-18.04" {
		t.Fatalf("OS = %s", img.OS)
	}
	// Base files + runscript + 10 descriptors + 10 binaries.
	for _, path := range []string{"/etc/os-release", "/etc/preseed.cfg",
		"/boot/vmlinux", "/home/gem5/runscript.sh",
		"/benchmarks/parsec/blackscholes", "/benchmarks/parsec/vips.desc"} {
		if _, err := img.ReadFile(path); err != nil {
			t.Errorf("missing %s", path)
		}
	}
	release, _ := img.ReadFile("/etc/os-release")
	if !bytes.Contains(release, []byte("KERNEL=4.15.18")) {
		t.Fatalf("os-release: %s", release)
	}
}

func TestImageBinariesAreExecutable(t *testing.T) {
	img, err := Build(parsecTemplate(workloads.Ubuntu2004))
	if err != nil {
		t.Fatal(err)
	}
	bin, err := img.ReadFile("/benchmarks/parsec/dedup")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := isa.Validate(prog); err != nil {
		t.Fatal(err)
	}
}

func TestImageDescriptorsRoundTrip(t *testing.T) {
	img, err := Build(parsecTemplate(workloads.Ubuntu1804))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := img.ReadFile("/benchmarks/parsec/ferret.desc")
	if err != nil {
		t.Fatal(err)
	}
	var app workloads.ParsecApp
	if err := json.Unmarshal(raw, &app); err != nil {
		t.Fatal(err)
	}
	want, err := workloads.FindParsec("ferret")
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != want.Name || app.SerialFrac != want.SerialFrac {
		t.Fatalf("descriptor mismatch: %+v", app)
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	img, err := Build(parsecTemplate(workloads.Ubuntu1804))
	if err != nil {
		t.Fatal(err)
	}
	data := img.Serialize()
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || got.OS != img.OS || len(got.Files) != len(img.Files) {
		t.Fatalf("round trip: %s %s %d files", got.Name, got.OS, len(got.Files))
	}
	for p, b := range img.Files {
		if !bytes.Equal(got.Files[p], b) {
			t.Fatalf("file %s differs after round trip", p)
		}
	}
}

func TestSerializationDeterministic(t *testing.T) {
	a, err := Build(parsecTemplate(workloads.Ubuntu1804))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(parsecTemplate(workloads.Ubuntu1804))
	if err != nil {
		t.Fatal(err)
	}
	ha := database.HashBytes(a.Serialize())
	hb := database.HashBytes(b.Serialize())
	if ha != hb {
		t.Fatal("same template built images with different hashes")
	}
	c, err := Build(parsecTemplate(workloads.Ubuntu2004))
	if err != nil {
		t.Fatal(err)
	}
	if database.HashBytes(c.Serialize()) == ha {
		t.Fatal("different OS built identical image")
	}
}

func TestAllSuitesInstall(t *testing.T) {
	for _, suite := range []string{"parsec", "npb", "gapbs", "spec", "boot-exit"} {
		tpl := Template{Name: "img-" + suite, OS: workloads.Ubuntu1804,
			Steps: []Provisioner{{Type: "benchmarks", Suite: suite}}}
		img, err := Build(tpl)
		if err != nil {
			t.Fatalf("%s: %v", suite, err)
		}
		found := false
		for _, p := range img.List() {
			if len(p) > len("/benchmarks/") && p[:12] == "/benchmarks/" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s installed no benchmarks", suite)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Template{OS: workloads.Ubuntu1804}); err == nil {
		t.Fatal("nameless template built")
	}
	if _, err := Build(Template{Name: "x", OS: workloads.Ubuntu1804,
		Steps: []Provisioner{{Type: "teleport"}}}); err == nil {
		t.Fatal("unknown provisioner accepted")
	}
	if _, err := Build(Template{Name: "x", OS: workloads.Ubuntu1804,
		Steps: []Provisioner{{Type: "benchmarks", Suite: "quake"}}}); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if _, err := Build(Template{Name: "x", OS: workloads.Ubuntu1804,
		Steps: []Provisioner{{Type: "file", Content: []byte("y")}}}); err == nil {
		t.Fatal("file provisioner without Dest accepted")
	}
}

// corruptions returns damaged copies of the serialized image data, by
// the damage each carries.
func corruptions(data []byte) map[string][]byte {
	badMagic := bytes.Clone(data)
	badMagic[0] = 'X'
	// Empty name and OS, then an entry count of 2^32-1 with no entries:
	// 18 bytes that must not size a map of that many entries.
	hugeCount := append(bytes.Clone(magic), 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)
	return map[string][]byte{
		"truncated magic":   data[:3],
		"truncated payload": data[:len(data)-2],
		"bad magic":         badMagic,
		"huge count":        hugeCount,
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	img, err := Build(Template{Name: "x", OS: workloads.Ubuntu1804})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range corruptions(img.Serialize()) {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: parsed", name)
		}
	}
}

func TestOSAffectsInstalledBinaries(t *testing.T) {
	// The same benchmark compiled on the two userlands must differ — the
	// whole point of use case 1.
	img18, err := Build(parsecTemplate(workloads.Ubuntu1804))
	if err != nil {
		t.Fatal(err)
	}
	img20, err := Build(parsecTemplate(workloads.Ubuntu2004))
	if err != nil {
		t.Fatal(err)
	}
	b18, _ := img18.ReadFile("/benchmarks/parsec/blackscholes")
	b20, _ := img20.ReadFile("/benchmarks/parsec/blackscholes")
	if bytes.Equal(b18, b20) {
		t.Fatal("blackscholes binary identical across OS generations")
	}
}
