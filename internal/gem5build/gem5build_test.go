package gem5build

import (
	"strings"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/gitstore"
)

func setup(t *testing.T) (*artifact.Registry, *artifact.Artifact, *gitstore.Repo, string) {
	t.Helper()
	reg := artifact.NewRegistry(database.MustOpen(""))
	repo := gitstore.NewRepo("https://gem5.googlesource.com/public/gem5")
	rev := repo.Commit(gitstore.Tree{"SConstruct": []byte("v20.1.0.4")}, "v20.1.0.4")
	repoArt, err := reg.Register(artifact.Options{Name: "gem5-repo", Typ: "git repository",
		Path: "gem5/", Repo: repo})
	if err != nil {
		t.Fatal(err)
	}
	return reg, repoArt, repo, rev
}

func TestBuildProducesLinkedArtifact(t *testing.T) {
	reg, repoArt, repo, rev := setup(t)
	bin, err := Build(reg, repoArt, repo, rev, StaticConfig{ISA: "X86"})
	if err != nil {
		t.Fatal(err)
	}
	if bin.Path != "gem5/build/X86/gem5.opt" {
		t.Fatalf("path = %s", bin.Path)
	}
	if len(bin.InputIDs) != 1 || bin.InputIDs[0] != repoArt.ID {
		t.Fatal("binary not linked to its source repository")
	}
	if !strings.Contains(bin.Command, "scons build/X86/gem5.opt") ||
		!strings.Contains(bin.Command, "git checkout "+rev[:12]) {
		t.Fatalf("command = %s", bin.Command)
	}
}

func TestBuildDeterministicPerInputs(t *testing.T) {
	reg, repoArt, repo, rev := setup(t)
	a, err := Build(reg, repoArt, repo, rev, StaticConfig{ISA: "X86"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(reg, repoArt, repo, rev, StaticConfig{ISA: "X86"})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatal("identical build created a new artifact")
	}
	// A new revision yields a new binary artifact.
	rev2 := repo.Commit(gitstore.Tree{"SConstruct": []byte("v20.1.0.5")}, "fix")
	c, err := Build(reg, repoArt, repo, rev2, StaticConfig{ISA: "X86"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash {
		t.Fatal("new revision produced the same binary hash")
	}
	// A different static config also yields a different artifact.
	d, err := Build(reg, repoArt, repo, rev, StaticConfig{ISA: "X86", Protocol: "MESI_Two_Level"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Hash == a.Hash {
		t.Fatal("different protocol produced the same binary hash")
	}
}

func TestGPUVariant(t *testing.T) {
	reg, repoArt, repo, rev := setup(t)
	gpuBin, err := Build(reg, repoArt, repo, rev, StaticConfig{ISA: "X86", GPU: true})
	if err != nil {
		t.Fatal(err)
	}
	if gpuBin.Path != "gem5/build/GCN3_X86/gem5.opt" {
		t.Fatalf("gpu path = %s", gpuBin.Path)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []StaticConfig{
		{ISA: "MIPS"},
		{ISA: "X86", Variant: "turbo"},
		{ISA: "ARM", GPU: true},
		{ISA: "X86", Protocol: "MOESI_hammer"},
	}
	for _, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", cfg)
		}
	}
	good := StaticConfig{ISA: "RISCV", Variant: "debug"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if good.Target() != "build/RISCV/gem5.debug" {
		t.Fatalf("target = %s", good.Target())
	}
}

func TestBuildRejectsUnknownRevision(t *testing.T) {
	reg, repoArt, repo, _ := setup(t)
	if _, err := Build(reg, repoArt, repo, "deadbeef", StaticConfig{ISA: "X86"}); err == nil {
		t.Fatal("unknown revision built")
	}
}
