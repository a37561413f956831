package launch

import (
	"context"
	"fmt"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/core/run"
	"gem5art/internal/database"
	"gem5art/internal/diskimage"
	"gem5art/internal/simcache"
	"gem5art/internal/workloads"
)

func TestSweepCrossProduct(t *testing.T) {
	s := NewSweep().
		Axis("cpu", "kvm", "timing").
		Axis("cores", "1", "2", "8")
	if s.Size() != 6 {
		t.Fatalf("size = %d", s.Size())
	}
	pts := s.Points()
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	// Last axis fastest.
	if pts[0]["cpu"] != "kvm" || pts[0]["cores"] != "1" ||
		pts[1]["cores"] != "2" || pts[3]["cpu"] != "timing" {
		t.Fatalf("order: %v", pts[:4])
	}
	seen := map[string]bool{}
	for _, p := range pts {
		key := p["cpu"] + "/" + p["cores"]
		if seen[key] {
			t.Fatalf("duplicate point %s", key)
		}
		seen[key] = true
	}
}

func TestSweepFigure8Size(t *testing.T) {
	s := NewSweep().
		Axis("kernel", "4.4.186", "4.9.186", "4.14.134", "4.19.83", "5.4.49").
		Axis("cpu", "kvmCPU", "AtomicSimpleCPU", "TimingSimpleCPU", "O3CPU").
		Axis("mem_sys", "classic", "ruby.MI_example", "ruby.MESI_Two_Level").
		Axis("num_cpus", "1", "2", "4", "8").
		Axis("boot_type", "init", "systemd")
	if s.Size() != 480 {
		t.Fatalf("Figure 8 sweep = %d cells, want 480", s.Size())
	}
}

func TestEmptySweepHasOnePoint(t *testing.T) {
	s := NewSweep()
	if s.Size() != 1 || len(s.Points()) != 1 {
		t.Fatalf("empty sweep: size=%d", s.Size())
	}
}

func TestSweepEach(t *testing.T) {
	n := 0
	NewSweep().Axis("a", "1", "2").Each(func(map[string]string) { n++ })
	if n != 2 {
		t.Fatalf("Each visited %d", n)
	}
}

func buildEnv(t *testing.T) (*artifact.Registry, run.FSSpec) {
	t.Helper()
	return buildEnvOn(t, database.MustOpen(""))
}

// buildEnvOn registers the artifacts of a boot-exit spec in db.
func buildEnvOn(t testing.TB, db database.Store) (*artifact.Registry, run.FSSpec) {
	t.Helper()
	reg := artifact.NewRegistry(db)
	gem5Git, err := reg.Register(artifact.Options{Name: "gem5-repo", Typ: "git repository",
		Path: "gem5/", Content: []byte("repo")})
	if err != nil {
		t.Fatal(err)
	}
	gem5, err := reg.Register(artifact.Options{Name: "gem5", Typ: "gem5 binary",
		Path: "gem5/build/X86/gem5.opt", Content: []byte("elf"),
		Inputs: []*artifact.Artifact{gem5Git}})
	if err != nil {
		t.Fatal(err)
	}
	script, err := reg.Register(artifact.Options{Name: "scripts", Typ: "git repository",
		Path: "exp/", Content: []byte("scripts")})
	if err != nil {
		t.Fatal(err)
	}
	linux, err := reg.Register(artifact.Options{Name: "vmlinux-5.4.49", Typ: "kernel",
		Path: "vmlinux", Content: []byte("kernel")})
	if err != nil {
		t.Fatal(err)
	}
	img, err := diskimage.Build(diskimage.Template{Name: "boot-exit", OS: workloads.Ubuntu1804,
		Steps: []diskimage.Provisioner{{Type: "benchmarks", Suite: "boot-exit"}}})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := reg.Register(artifact.Options{Name: "boot-exit", Typ: "disk image",
		Path: "disks/boot-exit.img", Content: img.Serialize()})
	if err != nil {
		t.Fatal(err)
	}
	return reg, run.FSSpec{
		Gem5Binary: "gem5/build/X86/gem5.opt", RunScript: "configs/run_exit.py",
		Output:       "results",
		Gem5Artifact: gem5, Gem5GitArtifact: gem5Git, RunScriptGitArtifact: script,
		LinuxBinary: "vmlinux", DiskImage: "disks/boot-exit.img",
		LinuxBinaryArtifact: linux, DiskImageArtifact: disk,
	}
}

func TestExperimentLaunchesSweep(t *testing.T) {
	reg, base := buildEnv(t)
	e := NewExperiment("mini-boot", reg, 4)
	defer e.Close()
	sweep := NewSweep().
		Axis("cpu", "kvmCPU", "AtomicSimpleCPU").
		Axis("num_cpus", "1", "2")
	sweep.Each(func(p map[string]string) {
		spec := base
		spec.Name = fmt.Sprintf("boot-%s-%s", p["cpu"], p["num_cpus"])
		spec.Params = []string{
			"kernel=5.4.49", "mem_sys=classic", "boot_type=init",
			"cpu=" + p["cpu"], "num_cpus=" + p["num_cpus"],
		}
		if _, err := e.LaunchFS(spec); err != nil {
			t.Errorf("launch %s: %v", spec.Name, err)
		}
	})
	e.Wait(context.Background())

	if len(e.Runs()) != 4 {
		t.Fatalf("%d runs", len(e.Runs()))
	}
	sum := Summarize(reg.DB())
	if sum.Total != 4 || sum.ByStatus["done"] != 4 {
		t.Fatalf("summary: %s", sum)
	}
	// kvm boots everywhere; atomic multi-core on classic is fine too.
	if sum.ByOutcome["success"] != 4 {
		t.Fatalf("outcomes: %v", sum.ByOutcome)
	}
}

func TestExperimentSurvivesFailingRuns(t *testing.T) {
	reg, base := buildEnv(t)
	e := NewExperiment("failing", reg, 2)
	defer e.Close()
	// O3 on old kernels panics; the experiment must complete anyway.
	for i, kver := range []string{"4.4.186", "5.4.49"} {
		spec := base
		spec.Name = fmt.Sprintf("boot-%d", i)
		spec.Params = []string{"kernel=" + kver, "cpu=O3CPU",
			"mem_sys=ruby.MESI_Two_Level", "num_cpus=2", "boot_type=init"}
		if _, err := e.LaunchFS(spec); err != nil {
			t.Fatal(err)
		}
	}
	e.Wait(context.Background())
	sum := Summarize(reg.DB())
	if sum.ByStatus["done"] != 2 {
		t.Fatalf("summary: %s", sum)
	}
	if sum.ByOutcome["kernel-panic"] != 1 || sum.ByOutcome["success"] != 1 {
		t.Fatalf("outcomes: %v", sum.ByOutcome)
	}
}

// TestLaunchRejectsInvalidSpec: a launch is validated whole before it
// probes the cache or writes, so one bad spec launches nothing.
func TestLaunchRejectsInvalidSpec(t *testing.T) {
	reg, base := buildEnv(t)
	e := NewExperiment("bad", reg, 1)
	defer e.Close()
	cache := simcache.New(reg.DB(), simcache.Options{})
	e.SetCache(cache)
	good := base
	good.Name = "good"
	bad := base
	bad.Name = "bad"
	bad.Gem5Artifact = nil
	before := cache.Stats()
	if _, err := e.LaunchFS(good, bad); err == nil {
		t.Fatal("invalid spec launched")
	}
	if n := reg.DB().Collection(run.Collection).Count(nil); n != 0 {
		t.Errorf("rejected launch recorded %d runs", n)
	}
	if len(e.Runs()) != 0 || len(e.futures) != 0 {
		t.Errorf("rejected launch queued %d runs", len(e.futures))
	}
	if after := cache.Stats(); after != before {
		t.Errorf("rejected launch touched the cache: %+v -> %+v", before, after)
	}
}

// TestLaunchReplacesMalformedCacheEntry: a cache entry that does not
// decode is not replayed at launch. The run is queued, simulates, and
// leaves a well-formed entry in place of the bad one.
func TestLaunchReplacesMalformedCacheEntry(t *testing.T) {
	reg, base := buildEnv(t)
	cache := simcache.New(reg.DB(), simcache.Options{})
	spec := base
	spec.Name = "malformed"
	spec.Params = []string{"kernel=5.4.49", "cpu=kvmCPU", "mem_sys=classic", "num_cpus=1", "boot_type=init"}
	probe, err := run.CreateFSRun(reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	key := probe.CacheKey()
	cache.Store(key, database.Doc{"Outcome": 42})

	e := NewExperiment("malformed", reg, 1)
	defer e.Close()
	e.SetCache(cache)
	runs, err := e.LaunchFS(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.futures) != 1 {
		t.Fatalf("a malformed entry was replayed: %d runs queued, want 1", len(e.futures))
	}
	e.Wait(context.Background())
	r := runs[0]
	if r.StatusNow() != run.Done || r.Results.Outcome != "success" || r.Results.FromCache {
		t.Fatalf("run: status %s results %+v", r.StatusNow(), r.Results)
	}
	doc, ok := cache.Probe(key)
	if !ok || doc["Outcome"] != "success" {
		t.Fatalf("cache entry after the run: %v (found %v), want a well-formed success", doc, ok)
	}
}

func TestRecordScript(t *testing.T) {
	reg, _ := buildEnv(t)
	e := NewExperiment("boot-tests", reg, 1)
	defer e.Close()
	src := "launch.NewSweep().Axis(...)"
	a, err := e.RecordScript("experiments/launch_boot_tests.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Typ != "launch script" {
		t.Fatalf("typ = %s", a.Typ)
	}
	content, err := reg.Content(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != src {
		t.Fatal("script source not archived")
	}
	// Same script re-registered is deduplicated.
	b, err := e.RecordScript("experiments/launch_boot_tests.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID {
		t.Fatal("script registration not idempotent")
	}
}
