package resources

import (
	"strings"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/diskimage"
	"gem5art/internal/workloads"
)

func TestCatalogMatchesTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 17 {
		t.Fatalf("catalog has %d entries, want 17 (Table I)", len(cat))
	}
	want := []string{"boot-exit", "gapbs", "hack-back", "linux-kernel", "npb",
		"parsec", "riscv-fs", "spec-2006", "spec-2017", "GCN-docker", "HeteroSync",
		"DNNMark", "halo-finder", "Pennant", "LULESH", "hip-samples", "gem5-tests"}
	for i, r := range cat {
		if r.Name != want[i] {
			t.Fatalf("entry %d = %s, want %s", i, r.Name, want[i])
		}
		if r.Description == "" || len(r.Kinds) == 0 {
			t.Fatalf("%s missing metadata", r.Name)
		}
	}
}

func TestLicensedAndGPUFlags(t *testing.T) {
	for _, name := range []string{"spec-2006", "spec-2017"} {
		r, err := Find(name)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Licensed {
			t.Errorf("%s should be licensed", name)
		}
	}
	gpu := 0
	for _, r := range Catalog() {
		if r.GPUVariant {
			gpu++
		}
	}
	if gpu != 7 {
		t.Fatalf("%d GPU resources, want 7 (docker + 6 suites)", gpu)
	}
}

func TestFindCaseInsensitive(t *testing.T) {
	if _, err := Find("PARSEC"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("quake3"); err == nil {
		t.Fatal("found nonexistent resource")
	}
}

func TestStatusPage(t *testing.T) {
	s, err := Status("v20.1.0.4")
	if err != nil {
		t.Fatal(err)
	}
	if s["parsec"] != StatusSupported {
		t.Fatalf("parsec on v20.1 = %s", s["parsec"])
	}
	if s["HeteroSync"] != StatusUntested {
		t.Fatalf("HeteroSync on v20.1 = %s (GPU needs v21.0)", s["HeteroSync"])
	}
	s21, err := Status("v21.0")
	if err != nil {
		t.Fatal(err)
	}
	if s21["HeteroSync"] != StatusSupported {
		t.Fatalf("HeteroSync on v21.0 = %s", s21["HeteroSync"])
	}
	if _, err := Status("v19.0"); err == nil {
		t.Fatal("unknown release accepted")
	}
}

func newReg() *artifact.Registry {
	return artifact.NewRegistry(database.MustOpen(""))
}

func TestBuildDiskImageResources(t *testing.T) {
	reg := newReg()
	for _, name := range []string{"boot-exit", "parsec", "npb", "gapbs", "hack-back"} {
		a, err := Build(reg, name, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Typ != "disk image" {
			t.Fatalf("%s built a %s", name, a.Typ)
		}
		raw, err := reg.Content(a)
		if err != nil {
			t.Fatal(err)
		}
		img, err := diskimage.Parse(raw)
		if err != nil {
			t.Fatalf("%s image corrupt: %v", name, err)
		}
		if img.OS != "ubuntu-18.04" {
			t.Fatalf("%s image OS = %s", name, img.OS)
		}
	}
}

func TestBuildParsecOn2004(t *testing.T) {
	reg := newReg()
	os := workloads.Ubuntu2004
	a, err := Build(reg, "parsec", BuildOptions{OS: &os})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Name, "ubuntu-20.04") {
		t.Fatalf("artifact name %s", a.Name)
	}
}

func TestSpecRequiresLicense(t *testing.T) {
	reg := newReg()
	if _, err := Build(reg, "spec-2006", BuildOptions{}); err == nil {
		t.Fatal("spec-2006 built without license media")
	}
	a, err := Build(reg, "spec-2006", BuildOptions{SpecISO: []byte("licensed iso bytes")})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := reg.Content(a)
	if err != nil {
		t.Fatal(err)
	}
	img, err := diskimage.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.ReadFile("/spec/install.iso"); err != nil {
		t.Fatal("ISO not installed into image")
	}
}

func TestBuildEveryUnlicensedResource(t *testing.T) {
	reg := newReg()
	for _, r := range Catalog() {
		if r.Licensed {
			continue
		}
		if _, err := Build(reg, r.Name, BuildOptions{}); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
}

func TestBuildIsIdempotent(t *testing.T) {
	reg := newReg()
	a, err := Build(reg, "boot-exit", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(reg, "boot-exit", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatal("rebuilding an identical resource created a new artifact")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table()
	for _, want := range []string{"boot-exit", "Benchmark / Test",
		"[license required]", "[GCN3_X86]"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
	if len(strings.Split(strings.TrimSpace(tbl), "\n")) != 18 {
		t.Fatalf("table should have header + 17 rows:\n%s", tbl)
	}
}
