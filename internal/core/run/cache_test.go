package run

import (
	"context"
	"strings"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/diskimage"
	"gem5art/internal/simcache"
	"gem5art/internal/workloads"
)

// hackSpec builds a hack-back run spec: benchmark/suite/cores vary per
// test, everything else is the shared environment.
func hackSpec(e *env, disk *artifact.Artifact, name, bench, suite string, cores string) FSSpec {
	return e.fsSpec(name, "configs/run_hackback.py", disk,
		"benchmark="+bench, "suite="+suite, "cpu=TimingSimpleCPU", "num_cpus="+cores)
}

// npbDisk builds a disk image carrying the NPB suite, so sibling runs
// in one boot class can run different benchmarks.
func npbDisk(t *testing.T, e *env) *artifact.Artifact {
	t.Helper()
	img, err := diskimage.Build(diskimage.Template{Name: "npb", OS: workloads.Ubuntu1804,
		Steps: []diskimage.Provisioner{{Type: "benchmarks", Suite: "npb"}}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.reg.Register(artifact.Options{Name: "npb", Typ: "disk image",
		Path: "disks/npb.img", Content: img.Serialize()})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func executeOK(t *testing.T, r *Run) {
	t.Helper()
	if err := r.Execute(context.Background()); err != nil {
		t.Fatalf("%s: %v", r.Spec.Name, err)
	}
	if r.StatusNow() != Done {
		t.Fatalf("%s: status %s", r.Spec.Name, r.StatusNow())
	}
}

// TestHackBackIgnoresCoreMismatchedPriorCheckpoint is the regression
// test for the prior-checkpoint reuse bug: a checkpoint recorded under
// a different core count must fall through to a fresh boot, never be
// restored.
func TestHackBackIgnoresCoreMismatchedPriorCheckpoint(t *testing.T) {
	e := newEnv(t)
	// Boot a 2-core run and steal its archived checkpoint.
	r2, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "donor-2core", "boot-exit", "boot-exit", "2"))
	if err != nil {
		t.Fatal(err)
	}
	executeOK(t, r2)
	_, donorHash, donorClass := r2.PriorCheckpoint()
	if donorHash == "" || donorClass == "" {
		t.Fatal("donor run left no checkpoint")
	}

	// A 1-core run handed that checkpoint must refuse it.
	r1, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "victim-1core", "boot-exit", "boot-exit", "1"))
	if err != nil {
		t.Fatal(err)
	}
	r1.RecordCheckpoint(donorHash, donorClass)
	executeOK(t, r1)
	if r1.Results.ResumedFrom != "" {
		t.Fatalf("1-core run resumed from a 2-core checkpoint: %+v", r1.Results)
	}
	if !strings.Contains(r1.Results.Console, "m5 checkpoint (archived") {
		t.Fatalf("expected a fresh boot, console: %q", r1.Results.Console)
	}
}

// TestHackBackIgnoresImageMismatchedPriorCheckpoint: same core count,
// but the checkpoint was taken under a different kernel — the boot
// class differs, so the prior checkpoint must not be restored.
func TestHackBackIgnoresImageMismatchedPriorCheckpoint(t *testing.T) {
	e := newEnv(t)
	r1, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "donor-kernel1", "boot-exit", "boot-exit", "1"))
	if err != nil {
		t.Fatal(err)
	}
	executeOK(t, r1)
	_, donorHash, donorClass := r1.PriorCheckpoint()
	if donorHash == "" {
		t.Fatal("donor run left no checkpoint")
	}

	otherKernel, err := e.reg.Register(artifact.Options{Name: "vmlinux-4.19.83", Typ: "kernel",
		Path: "linux/vmlinux-4.19.83", Content: []byte("vmlinux 4.19.83")})
	if err != nil {
		t.Fatal(err)
	}
	spec := hackSpec(e, e.bootDisk, "victim-kernel2", "boot-exit", "boot-exit", "1")
	spec.LinuxBinaryArtifact = otherKernel
	r2, err := CreateFSRun(e.reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	r2.RecordCheckpoint(donorHash, donorClass)
	executeOK(t, r2)
	if r2.Results.ResumedFrom != "" {
		t.Fatalf("run resumed from another kernel's checkpoint: %+v", r2.Results)
	}
	if !strings.Contains(r2.Results.Console, "m5 checkpoint (archived") {
		t.Fatalf("expected a fresh boot, console: %q", r2.Results.Console)
	}
}

// TestHackBackSurvivesBogusPriorCheckpoint: an unfetchable or unparsable
// recorded checkpoint falls back to a fresh boot instead of failing.
func TestHackBackSurvivesBogusPriorCheckpoint(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "bogus-ckpt", "boot-exit", "boot-exit", "1"))
	if err != nil {
		t.Fatal(err)
	}
	class := simcache.BootClass{
		KernelHash: e.linux.Hash, DiskHash: e.bootDisk.Hash, Cores: 1, Mem: "classic",
	}
	// A hash no file-store content answers to.
	r.RecordCheckpoint("00000000000000000000000000000000", class.Key())
	executeOK(t, r)
	if r.Results.ResumedFrom != "" || !strings.Contains(r.Results.Console, "m5 checkpoint (archived") {
		t.Fatalf("bogus checkpoint was restored: %+v", r.Results)
	}

	// A hash whose content is not a checkpoint: integrity passes, parse
	// fails, fresh boot follows.
	notCkpt, _ := e.reg.DB().Files().Put("junk", []byte("not a checkpoint"))
	r2, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "junk-ckpt", "boot-exit", "boot-exit", "1"))
	if err != nil {
		t.Fatal(err)
	}
	r2.RecordCheckpoint(notCkpt, class.Key())
	executeOK(t, r2)
	if r2.Results.ResumedFrom != "" || !strings.Contains(r2.Results.Console, "m5 checkpoint (archived") {
		t.Fatalf("junk checkpoint was restored: %+v", r2.Results)
	}
}

// TestRunMemoization: an identical run through the same cache replays
// the first run's result instead of simulating, and the replay is
// recorded on the run document as cache_hit.
func TestRunMemoization(t *testing.T) {
	e := newEnv(t)
	cache := simcache.New(e.reg.DB(), simcache.Options{})
	r1, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "memo-cold", "boot-exit", "boot-exit", "1"))
	if err != nil {
		t.Fatal(err)
	}
	r1.cache = cache
	executeOK(t, r1)
	if r1.Results.FromCache {
		t.Fatal("cold run claims a cache hit")
	}

	r2, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "memo-warm", "boot-exit", "boot-exit", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.CacheKey() != r1.CacheKey() {
		t.Fatalf("identical specs got different keys: %s vs %s", r1.CacheKey(), r2.CacheKey())
	}
	r2.cache = cache
	executeOK(t, r2)
	if !r2.Results.FromCache {
		t.Fatal("identical run did not hit the cache")
	}
	if r2.Results.Insts != r1.Results.Insts || r2.Results.Console != r1.Results.Console {
		t.Fatalf("replayed result differs: %+v vs %+v", r2.Results, r1.Results)
	}
	doc := e.reg.DB().Collection(Collection).FindOne(database.Doc{"_id": r2.ID})
	if hit, _ := doc["cache_hit"].(bool); !hit {
		t.Fatalf("cache_hit not recorded on run document: %v", doc["cache_hit"])
	}
	if doc["cache_key"] != r2.CacheKey() {
		t.Fatalf("cache_key not recorded: %v", doc["cache_key"])
	}
	st := cache.Stats()
	if st.Misses != 1 || st.HitsMemory != 1 {
		t.Fatalf("cache stats: %+v", st)
	}

	// The replayed result is a private copy: scribbling on it must not
	// poison a third identical run.
	r2.Results.Stats["boot_insts"] = -1
	r3, err := CreateFSRun(e.reg, hackSpec(e, e.bootDisk, "memo-warm-2", "boot-exit", "boot-exit", "1"))
	if err != nil {
		t.Fatal(err)
	}
	r3.cache = cache
	executeOK(t, r3)
	if r3.Results.Stats["boot_insts"] == -1 {
		t.Fatal("cached result aliased across runs")
	}
}

// TestArchivedStatsAreDeterministic: two executions of one spec render
// the same stats.txt, so they archive one blob and record one
// stats_file hash.
func TestArchivedStatsAreDeterministic(t *testing.T) {
	e := newEnv(t)
	disk := npbDisk(t, e)
	var hashes []string
	for _, name := range []string{"cg-a", "cg-b"} {
		spec := e.fsSpec(name, "configs/run_npb.py", disk,
			"benchmark=cg", "cpu=TimingSimpleCPU", "num_cpus=1", "mem_sys=classic")
		spec.Energy = "auto" // the energy model adds the energy.* stats
		r, err := CreateFSRun(e.reg, spec)
		if err != nil {
			t.Fatal(err)
		}
		executeOK(t, r)
		if len(r.Results.Stats) < 10 {
			t.Fatalf("%d stats: too few for iteration order to show", len(r.Results.Stats))
		}
		hashes = append(hashes, r.Results.StatsHash)
	}
	if hashes[0] == "" || hashes[0] != hashes[1] {
		t.Fatalf("identical runs archived different stats.txt: %q vs %q", hashes[0], hashes[1])
	}
}

// TestReplayedRunMatchesExecutedHit: a run the cache answers at
// creation is created done, refuses execution, archives nothing new,
// and its document carries the same fields and values as a hit found
// while executing.
func TestReplayedRunMatchesExecutedHit(t *testing.T) {
	e := newEnv(t)
	cache := simcache.New(e.reg.DB(), simcache.Options{})
	spec := hackSpec(e, e.bootDisk, "replay", "boot-exit", "boot-exit", "1")
	cold, replayed, err := CreateFSRunCached(e.reg, spec, cache)
	if err != nil || replayed {
		t.Fatalf("cold run: replayed=%v err=%v", replayed, err)
	}
	executeOK(t, cold)

	executed, err := CreateFSRun(e.reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	executed.cache = cache
	executeOK(t, executed)
	col := e.reg.DB().Collection(Collection)
	files := len(e.reg.DB().Files().List())

	r, replayed, err := CreateFSRunCached(e.reg, spec, cache)
	if err != nil || !replayed {
		t.Fatalf("warm run: replayed=%v err=%v", replayed, err)
	}
	if r.StatusNow() != Done || !r.Results.FromCache {
		t.Fatalf("replayed run: status %s results %+v", r.StatusNow(), r.Results)
	}
	if err := r.Execute(context.Background()); err == nil {
		t.Fatal("a replayed run accepted re-execution")
	}
	if got := len(e.reg.DB().Files().List()); got != files {
		t.Fatalf("replay archived new blobs: %d -> %d", files, got)
	}
	want := col.FindOne(database.Doc{"_id": executed.ID})
	got := col.FindOne(database.Doc{"_id": r.ID})
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("replayed document lacks %q", k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("replayed document has extra field %q", k)
		}
	}
	for _, k := range []string{"status", "outcome", "insts", "sim_seconds", "cache_hit", "cache_key",
		"stats_file", "console_file", "config_file", "boot_class"} {
		if got[k] != want[k] {
			t.Errorf("%s: replayed %v, executed hit %v", k, got[k], want[k])
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.HitsMemory != 2 {
		t.Fatalf("cache stats: %+v, want 1 miss and 2 memory hits", st)
	}
}

// TestRunsWithDifferentParamsDoNotCollide: the key covers the params,
// so near-identical runs stay distinct.
func TestRunsWithDifferentParamsDoNotCollide(t *testing.T) {
	e := newEnv(t)
	cache := simcache.New(e.reg.DB(), simcache.Options{})
	disk := npbDisk(t, e)
	r1, err := CreateFSRun(e.reg, hackSpec(e, disk, "cg", "cg", "npb", "1"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CreateFSRun(e.reg, hackSpec(e, disk, "ep", "ep", "npb", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheKey() == r2.CacheKey() {
		t.Fatal("different benchmarks share a cache key")
	}
	r1.cache = cache
	r2.cache = cache
	executeOK(t, r1)
	executeOK(t, r2)
	if r2.Results.FromCache {
		t.Fatal("different run replayed the wrong cached result")
	}
}

// TestSharedBootAcrossClass: two different runs in one boot class share
// a single phase-1 boot through the cache.
func TestSharedBootAcrossClass(t *testing.T) {
	e := newEnv(t)
	cache := simcache.New(e.reg.DB(), simcache.Options{})
	disk := npbDisk(t, e)
	r1, err := CreateFSRun(e.reg, hackSpec(e, disk, "class-cg", "cg", "npb", "1"))
	if err != nil {
		t.Fatal(err)
	}
	r1.cache = cache
	executeOK(t, r1)
	if r1.Results.SharedBoot {
		t.Fatal("first run in class claims a shared boot")
	}
	if r1.Results.BootClass == "" {
		t.Fatal("boot class not recorded")
	}

	r2, err := CreateFSRun(e.reg, hackSpec(e, disk, "class-ep", "ep", "npb", "1"))
	if err != nil {
		t.Fatal(err)
	}
	r2.cache = cache
	executeOK(t, r2)
	if !r2.Results.SharedBoot {
		t.Fatalf("sibling run re-booted: %+v", r2.Results)
	}
	if r2.Results.BootClass != r1.Results.BootClass {
		t.Fatalf("boot classes differ: %s vs %s", r2.Results.BootClass, r1.Results.BootClass)
	}
	if !strings.Contains(r2.Results.Console, "restored boot-class checkpoint") {
		t.Fatalf("console does not show the shared boot: %q", r2.Results.Console)
	}
	st := cache.Stats()
	if st.Boots != 1 || st.BootsShared != 1 {
		t.Fatalf("boot stats: %+v", st)
	}
	doc := e.reg.DB().Collection(Collection).FindOne(database.Doc{"_id": r2.ID})
	if sb, _ := doc["shared_boot"].(bool); !sb {
		t.Fatalf("shared_boot not recorded on run document: %v", doc)
	}
}
