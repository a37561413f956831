// Package experiments reproduces the paper's evaluation end-to-end:
// every table and figure of §VI is regenerated by driving the full
// gem5art stack — artifact registration, disk-image resources, run
// objects, the task pool, the results database, and the analysis layer.
// The benchmark harness (bench_test.go) and the example programs are
// thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"time"

	"gem5art/internal/analysis"
	"gem5art/internal/core/artifact"
	"gem5art/internal/core/launch"
	"gem5art/internal/core/run"
	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/gem5build"
	"gem5art/internal/gitstore"
	"gem5art/internal/resources"
	"gem5art/internal/simcache"
	"gem5art/internal/workloads"
)

// Env is a fully provisioned experiment environment: a database, the
// standard artifact set (gem5 binary and repository, kernels, run
// scripts), and the disk images the three use cases need.
type Env struct {
	Reg *artifact.Registry

	Gem5    *artifact.Artifact // X86 build (v20.1.0.4, use cases 1-2)
	Gem5GPU *artifact.Artifact // GCN3_X86 build (v21.0, use case 3)
	Gem5Git *artifact.Artifact
	Scripts *artifact.Artifact

	Kernels map[string]*artifact.Artifact // version -> vmlinux artifact

	BootDisk   *artifact.Artifact
	ParsecDisk map[string]*artifact.Artifact // OS name -> image artifact

	// Retry, when enabled, re-executes runs whose failures are
	// classified transient — long sweeps survive flaky cells. The zero
	// value keeps the seed's fail-fast behaviour.
	Retry tasks.RetryPolicy

	// Cache, when set, memoizes runs through the simulation cache and
	// shares one boot per boot-equivalence class. Nil runs everything.
	Cache *simcache.Cache
}

// Gem5Version is the simulator release the CPU use cases pin (§VI-A/B);
// use case 3 uses v21.0 for the GPU model.
const Gem5Version = "v20.1.0.4"

// NewEnv provisions the environment. dbDir of "" keeps everything in
// memory.
func NewEnv(dbDir string) (*Env, error) {
	db, err := database.Open(dbDir)
	if err != nil {
		return nil, err
	}
	reg := artifact.NewRegistry(db)
	e := &Env{
		Reg:        reg,
		Kernels:    map[string]*artifact.Artifact{},
		ParsecDisk: map[string]*artifact.Artifact{},
	}

	repo := gitstore.NewRepo("https://gem5.googlesource.com/public/gem5")
	rev201 := repo.Commit(gitstore.Tree{"SConstruct": []byte("gem5 " + Gem5Version)}, Gem5Version)
	rev210 := repo.Commit(gitstore.Tree{"SConstruct": []byte("gem5 v21.0 + GCN3")}, "v21.0")
	if e.Gem5Git, err = reg.Register(artifact.Options{
		Name: "gem5-repo", Typ: "git repository", Path: "gem5/",
		Command: "git clone https://gem5.googlesource.com/public/gem5; git checkout " + Gem5Version,
		Repo:    repo, Rev: rev201,
	}); err != nil {
		return nil, err
	}
	// Compile the two simulator builds the paper uses: X86 at v20.1.0.4
	// for the CPU studies and GCN3_X86 at v21.0 for the GPU study.
	if e.Gem5, err = gem5build.Build(reg, e.Gem5Git, repo, rev201,
		gem5build.StaticConfig{ISA: "X86"}); err != nil {
		return nil, err
	}
	if e.Gem5GPU, err = gem5build.Build(reg, e.Gem5Git, repo, rev210,
		gem5build.StaticConfig{ISA: "X86", GPU: true}); err != nil {
		return nil, err
	}
	if e.Scripts, err = reg.Register(artifact.Options{
		Name: "experiment-scripts", Typ: "git repository", Path: "experiments/",
		Command: "git clone https://example.org/gem5art-experiments",
		Content: []byte("launch and run scripts"),
	}); err != nil {
		return nil, err
	}

	// Kernels: the five boot-sweep LTS kernels plus the two Ubuntu image
	// kernels (Table II).
	versions := []string{"4.4.186", "4.9.186", "4.14.134", "4.19.83", "5.4.49",
		"4.15.18", "5.4.51"}
	for _, v := range versions {
		a, err := reg.Register(artifact.Options{
			Name: "vmlinux-" + v, Typ: "kernel", Path: "linux-stable/vmlinux-" + v,
			Command:       "make -j8 vmlinux (config from gem5-resources linux-kernel)",
			Documentation: "Linux " + v + " built from the gem5-resources configuration",
			Content:       []byte("vmlinux " + v + " x86_64"),
		})
		if err != nil {
			return nil, err
		}
		e.Kernels[v] = a
	}

	// Disk images from the resource catalog.
	if e.BootDisk, err = resources.Build(reg, "boot-exit", resources.BuildOptions{}); err != nil {
		return nil, err
	}
	for _, os := range workloads.OSImages {
		os := os
		a, err := resources.Build(reg, "parsec", resources.BuildOptions{OS: &os})
		if err != nil {
			return nil, err
		}
		e.ParsecDisk[os.Name] = a
	}
	return e, nil
}

// DB returns the environment's database.
func (e *Env) DB() database.Store { return e.Reg.DB() }

// fsSpec assembles the boilerplate of an FS run spec.
func (e *Env) fsSpec(name, script string, kernelVersion string, disk *artifact.Artifact, params []string) run.FSSpec {
	kern := e.Kernels[kernelVersion]
	if kern == nil {
		kern = e.Kernels["5.4.49"]
	}
	return run.FSSpec{
		Name:                 name,
		Gem5Binary:           "gem5/build/X86/gem5.opt",
		RunScript:            script,
		Output:               "results/" + name,
		Gem5Artifact:         e.Gem5,
		Gem5GitArtifact:      e.Gem5Git,
		RunScriptGitArtifact: e.Scripts,
		LinuxBinary:          kern.Path,
		DiskImage:            disk.Path,
		LinuxBinaryArtifact:  kern,
		DiskImageArtifact:    disk,
		Params:               params,
		Timeout:              10 * time.Minute,
	}
}

// launchAll drives a set of specs through an Experiment, waits, and
// reads back the documents of the runs it launched — by _id, in launch
// order — flattened for analysis. Runs that did not finish done are
// left out. Earlier launches sharing the database are never read.
func (e *Env) launchAll(name string, workers int, specs []run.FSSpec) ([]analysis.RunRow, error) {
	exp := launch.NewExperiment(name, e.Reg, workers)
	defer exp.Close()
	if e.Retry.Enabled() {
		exp.SetRetryPolicy(e.Retry)
	}
	if e.Cache != nil {
		exp.SetCache(e.Cache)
	}
	runs, err := exp.LaunchFS(specs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: launch %s: %w", name, err)
	}
	exp.Wait(context.Background())
	col := e.DB().Collection(run.Collection)
	rows := make([]analysis.RunRow, 0, len(specs))
	for _, r := range runs {
		if d := col.FindOne(database.Doc{"_id": r.ID}); d != nil && d["status"] == string(run.Done) {
			rows = append(rows, analysis.Row(d))
		}
	}
	return rows, nil
}
