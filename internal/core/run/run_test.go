package run

import (
	"context"
	"strings"
	"testing"
	"time"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/diskimage"
	"gem5art/internal/gitstore"
	"gem5art/internal/workloads"
)

// env bundles the artifacts every FS run needs.
type env struct {
	reg        *artifact.Registry
	gem5       *artifact.Artifact
	gem5Git    *artifact.Artifact
	script     *artifact.Artifact
	linux      *artifact.Artifact
	parsecDisk *artifact.Artifact
	bootDisk   *artifact.Artifact
}

func newEnv(t *testing.T) *env {
	t.Helper()
	reg := artifact.NewRegistry(database.MustOpen(""))
	repo := gitstore.NewRepo("https://gem5.googlesource.com/public/gem5")
	repo.Commit(gitstore.Tree{"SConstruct": []byte("gem5 v20.1.0.4")}, "v20.1.0.4")

	gem5Git, err := reg.Register(artifact.Options{Name: "gem5-repo", Typ: "git repository",
		Path: "gem5/", Repo: repo,
		Command: "git clone https://gem5.googlesource.com/public/gem5"})
	if err != nil {
		t.Fatal(err)
	}
	gem5, err := reg.Register(artifact.Options{Name: "gem5", Typ: "gem5 binary",
		Path: "gem5/build/X86/gem5.opt", Content: []byte("gem5.opt v20.1.0.4 X86"),
		Command: "scons build/X86/gem5.opt -j8", Inputs: []*artifact.Artifact{gem5Git}})
	if err != nil {
		t.Fatal(err)
	}
	script, err := reg.Register(artifact.Options{Name: "experiment-scripts", Typ: "git repository",
		Path: "experiments/", Content: []byte("launch scripts")})
	if err != nil {
		t.Fatal(err)
	}
	linux, err := reg.Register(artifact.Options{Name: "vmlinux-5.4.49", Typ: "kernel",
		Path: "linux/vmlinux", Content: []byte("vmlinux 5.4.49")})
	if err != nil {
		t.Fatal(err)
	}

	build := func(name string, tpl diskimage.Template) *artifact.Artifact {
		img, err := diskimage.Build(tpl)
		if err != nil {
			t.Fatal(err)
		}
		a, err := reg.Register(artifact.Options{Name: name, Typ: "disk image",
			Path: "disks/" + name + ".img", Content: img.Serialize(),
			Command: "packer build " + name + ".json"})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	parsecDisk := build("parsec-ubuntu-18.04", diskimage.Template{
		Name: "parsec-ubuntu-18.04", OS: workloads.Ubuntu1804,
		Steps: []diskimage.Provisioner{{Type: "benchmarks", Suite: "parsec"}}})
	bootDisk := build("boot-exit", diskimage.Template{
		Name: "boot-exit", OS: workloads.Ubuntu1804,
		Steps: []diskimage.Provisioner{{Type: "benchmarks", Suite: "boot-exit"}}})

	return &env{reg: reg, gem5: gem5, gem5Git: gem5Git, script: script,
		linux: linux, parsecDisk: parsecDisk, bootDisk: bootDisk}
}

func (e *env) fsSpec(name, script string, disk *artifact.Artifact, params ...string) FSSpec {
	return FSSpec{
		Name:                 name,
		Gem5Binary:           "gem5/build/X86/gem5.opt",
		RunScript:            script,
		Output:               "results/" + name,
		Gem5Artifact:         e.gem5,
		Gem5GitArtifact:      e.gem5Git,
		RunScriptGitArtifact: e.script,
		LinuxBinary:          "linux/vmlinux",
		DiskImage:            "disks/img",
		LinuxBinaryArtifact:  e.linux,
		DiskImageArtifact:    disk,
		Params:               params,
	}
}

func TestCreateFSRunValidates(t *testing.T) {
	e := newEnv(t)
	spec := e.fsSpec("ok", "configs/run_exit.py", e.bootDisk)
	if _, err := CreateFSRun(e.reg, spec); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	missing := spec
	missing.Gem5Artifact = nil
	if _, err := CreateFSRun(e.reg, missing); err == nil {
		t.Fatal("missing gem5 artifact accepted")
	}
	badScript := spec
	badScript.RunScript = "configs/run_unknown.py"
	if _, err := CreateFSRun(e.reg, badScript); err == nil {
		t.Fatal("unknown run script accepted")
	}
}

func TestRunDocumentRecordsEverything(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("boot", "configs/run_exit.py", e.bootDisk,
		"cpu=kvmCPU", "num_cpus=2"))
	if err != nil {
		t.Fatal(err)
	}
	doc := e.reg.DB().Collection(Collection).FindOne(database.Doc{"_id": r.ID})
	if doc == nil {
		t.Fatal("run not recorded")
	}
	if doc["status"] != "queued" {
		t.Fatalf("status = %v", doc["status"])
	}
	arts, ok := doc["artifacts"].(map[string]any)
	if !ok || arts["gem5"] != e.gem5.ID || arts["disk"] != e.bootDisk.ID {
		t.Fatalf("artifact references: %v", doc["artifacts"])
	}
	cmd, _ := doc["command"].(string)
	for _, want := range []string{"gem5.opt", "configs/run_exit.py", "--kernel=",
		"--disk=", "--cpu=kvmCPU", "--num_cpus=2"} {
		if !strings.Contains(cmd, want) {
			t.Errorf("command %q missing %q", cmd, want)
		}
	}
}

func TestExecuteBootRun(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("boot-kvm", "configs/run_exit.py", e.bootDisk,
		"cpu=kvmCPU", "mem_sys=classic", "num_cpus=1", "boot_type=init", "kernel=5.4.49"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Status != Done {
		t.Fatalf("status = %s", r.Status)
	}
	if r.Results.Outcome != "success" {
		t.Fatalf("outcome = %s (%s)", r.Results.Outcome, r.Results.Console)
	}
	if r.Results.SimSeconds <= 0 || r.Results.Insts == 0 {
		t.Fatalf("results empty: %+v", r.Results)
	}
	// Results must be archived to the file store and referenced.
	doc := e.reg.DB().Collection(Collection).FindOne(database.Doc{"_id": r.ID})
	if doc["status"] != "done" || doc["outcome"] != "success" {
		t.Fatalf("doc not updated: %v", doc)
	}
	statsHash, _ := doc["stats_file"].(string)
	if statsHash == "" || !e.reg.DB().Files().Exists(statsHash) {
		t.Fatal("stats.txt not archived")
	}
	consoleHash, _ := doc["console_file"].(string)
	raw, err := e.reg.DB().Files().Get(consoleHash)
	if err != nil || !strings.Contains(string(raw), "m5 exit") {
		t.Fatalf("console archive: %q, %v", raw, err)
	}
}

func TestExecuteBootFailureIsOutcomeNotError(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("boot-o3", "configs/run_exit.py", e.bootDisk,
		"cpu=O3CPU", "mem_sys=ruby.MESI_Two_Level", "num_cpus=2", "boot_type=init",
		"kernel=4.4.186"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatalf("failure outcome surfaced as error: %v", err)
	}
	if r.Status != Done || r.Results.Outcome != "kernel-panic" {
		t.Fatalf("status=%s outcome=%s", r.Status, r.Results.Outcome)
	}
	if !strings.Contains(r.Results.Console, "Kernel panic") {
		t.Fatalf("console: %q", r.Results.Console)
	}
}

func TestExecuteParsecRun(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("parsec-blackscholes", "configs/run_parsec.py",
		e.parsecDisk, "benchmark=blackscholes", "cpu=TimingSimpleCPU", "num_cpus=2",
		"size=simmedium"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Status != Done || r.Results.Outcome != "success" {
		t.Fatalf("status=%s results=%+v", r.Status, r.Results)
	}
	if r.Results.Stats["ipc"] <= 0 {
		t.Fatalf("stats: %v", r.Results.Stats)
	}
}

func TestExecuteParsecUnknownBenchmark(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("parsec-x264", "configs/run_parsec.py",
		e.parsecDisk, "benchmark=x264", "cpu=TimingSimpleCPU"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err == nil {
		t.Fatal("x264 is not on the image; execute should error")
	}
	if r.Status != Failed {
		t.Fatalf("status = %s", r.Status)
	}
}

func TestExecuteGPURun(t *testing.T) {
	e := newEnv(t)
	gpuBin, err := e.reg.Register(artifact.Options{Name: "gem5-gcn3", Typ: "gem5 binary",
		Path: "gem5/build/GCN3_X86/gem5.opt", Content: []byte("gem5.opt v21.0 GCN3_X86"),
		Inputs: []*artifact.Artifact{e.gem5Git}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alloc := range []string{"simple", "dynamic"} {
		spec := e.fsSpec("gpu-FAMutex-"+alloc, "configs/run_gpu.py",
			e.bootDisk, "app=FAMutex", "reg_alloc="+alloc)
		spec.Gem5Binary = gpuBin.Path
		spec.Gem5Artifact = gpuBin
		r, err := CreateFSRun(e.reg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		if r.Results.Stats["shader_ticks"] <= 0 {
			t.Fatalf("%s: stats: %v", alloc, r.Results.Stats)
		}
	}
	docs := e.reg.DB().Collection(Collection).Find(database.Doc{"status": "done"})
	if len(docs) != 2 {
		t.Fatalf("%d done runs", len(docs))
	}
}

func TestTimeoutMarksRun(t *testing.T) {
	e := newEnv(t)
	spec := e.fsSpec("parsec-slow", "configs/run_parsec.py", e.parsecDisk,
		"benchmark=streamcluster", "cpu=TimingSimpleCPU", "num_cpus=8")
	spec.Timeout = time.Nanosecond
	r, err := CreateFSRun(e.reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Status != TimedOut {
		t.Fatalf("status = %s, want timed-out", r.Status)
	}
}

func TestParamParsing(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("p", "configs/run_exit.py", e.bootDisk,
		"cpu=O3CPU", "num_cpus=8"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Param("cpu", "x") != "O3CPU" || r.Param("missing", "dflt") != "dflt" {
		t.Fatal("param lookup broken")
	}
}

func TestNPBRunFromImage(t *testing.T) {
	e := newEnv(t)
	img, err := diskimage.Build(diskimage.Template{Name: "npb", OS: workloads.Ubuntu1804,
		Steps: []diskimage.Provisioner{{Type: "benchmarks", Suite: "npb"}}})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := e.reg.Register(artifact.Options{Name: "npb-disk", Typ: "disk image",
		Path: "disks/npb.img", Content: img.Serialize()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := CreateFSRun(e.reg, e.fsSpec("npb-cg", "configs/run_npb.py", disk,
		"benchmark=cg", "cpu=TimingSimpleCPU", "num_cpus=1", "mem_sys=classic"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Results.Outcome != "success" || r.Results.Insts == 0 {
		t.Fatalf("results: %+v", r.Results)
	}
}

func TestSERun(t *testing.T) {
	e := newEnv(t)
	prog, err := workloadsNPB()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := e.reg.Register(artifact.Options{Name: "npb-ep-binary", Typ: "binary",
		Path: "bin/ep", Content: prog})
	if err != nil {
		t.Fatal(err)
	}
	r, err := CreateSERun(e.reg, SESpec{
		Name:                 "se-ep",
		Gem5Binary:           "gem5/build/X86/gem5.opt",
		Output:               "results/se-ep",
		Gem5Artifact:         e.gem5,
		Gem5GitArtifact:      e.gem5Git,
		RunScriptGitArtifact: e.script,
		BinaryArtifact:       bin,
		Params:               []string{"cpu=O3CPU", "num_cpus=1", "mem_sys=classic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "se" {
		t.Fatalf("mode = %s", r.Mode)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Status != Done || r.Results.Outcome != "success" || r.Results.Insts == 0 {
		t.Fatalf("se run: status=%s results=%+v", r.Status, r.Results)
	}
}

func TestSERunValidation(t *testing.T) {
	e := newEnv(t)
	_, err := CreateSERun(e.reg, SESpec{
		Name: "bad", Gem5Artifact: e.gem5, Gem5GitArtifact: e.gem5Git,
		RunScriptGitArtifact: e.script, // no binary
	})
	if err == nil {
		t.Fatal("SE run without binary accepted")
	}
}

func TestHackBackRun(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("hackback", "configs/run_hackback.py",
		e.bootDisk, "benchmark=boot-exit", "suite=boot-exit",
		"cpu=TimingSimpleCPU", "num_cpus=1", "mem_sys=ruby.MESI_Two_Level"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.Status != Done || r.Results.Outcome != "success" {
		t.Fatalf("hackback: %s %+v", r.Status, r.Results)
	}
	if r.Results.Stats["boot_insts"] == 0 || r.Results.Stats["script_insts"] == 0 {
		t.Fatalf("phases missing: %v", r.Results.Stats)
	}
	if !strings.Contains(r.Results.Console, "m5 checkpoint") {
		t.Fatalf("console: %q", r.Results.Console)
	}
	// The checkpoint must be archived in the file store.
	found := false
	for _, meta := range e.reg.DB().Files().List() {
		if strings.Contains(meta.Name, "cpt.1") {
			found = true
		}
	}
	if !found {
		t.Fatal("checkpoint not archived")
	}
}

func TestGPURunRequiresGCN3Build(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("gpu-on-x86", "configs/run_gpu.py",
		e.bootDisk, "app=FAMutex", "reg_alloc=simple"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err == nil {
		t.Fatal("GPU run on a plain X86 build succeeded")
	}
	if r.Status != Failed {
		t.Fatalf("status = %s", r.Status)
	}
}

func TestConfigINIArchived(t *testing.T) {
	e := newEnv(t)
	r, err := CreateFSRun(e.reg, e.fsSpec("cfg-boot", "configs/run_exit.py", e.bootDisk,
		"cpu=TimingSimpleCPU", "mem_sys=ruby.MESI_Two_Level", "num_cpus=2",
		"boot_type=init", "kernel=5.4.49"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	doc := e.reg.DB().Collection(Collection).FindOne(database.Doc{"_id": r.ID})
	hash, _ := doc["config_file"].(string)
	if hash == "" {
		t.Fatal("config.ini not referenced")
	}
	raw, err := e.reg.DB().Files().Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[system]", "[system.cpu0]", "[system.cpu1]",
		"type=TimingSimpleCPU", "ruby.MESI_Two_Level", "DDR3_1600_8x8"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("config.ini missing %q:\n%s", want, raw)
		}
	}
}
