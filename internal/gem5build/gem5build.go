// Package gem5build models the left column of the paper's Figure 1:
// compiling the simulator source at a pinned revision with a static
// configuration (target ISA, build variant, baked-in Ruby protocol, GPU
// model) into a simulator-executable artifact. The produced binary bytes
// are a deterministic function of (revision, configuration), so the
// artifact hash changes exactly when the inputs do — the property
// gem5art's reproducibility story rests on.
package gem5build

import (
	"fmt"
	"strings"

	"gem5art/internal/core/artifact"
	"gem5art/internal/gitstore"
)

// StaticConfig is the compile-time configuration (e.g. "targeting the
// x86 ISA with a two level cache hierarchy").
type StaticConfig struct {
	ISA      string // X86, ARM, RISCV
	Variant  string // opt, debug, fast
	Protocol string // baked Ruby protocol ("" = MI_example default)
	GPU      bool   // build the GCN3_X86 variant (needed for use case 3)
}

// ValidISAs lists supported target ISAs.
var ValidISAs = []string{"X86", "ARM", "RISCV"}

// Validate checks the configuration.
func (c *StaticConfig) Validate() error {
	ok := false
	for _, isa := range ValidISAs {
		if c.ISA == isa {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("gem5build: unknown ISA %q", c.ISA)
	}
	switch c.Variant {
	case "", "opt", "debug", "fast":
	default:
		return fmt.Errorf("gem5build: unknown variant %q", c.Variant)
	}
	if c.GPU && c.ISA != "X86" {
		return fmt.Errorf("gem5build: the GCN3 GPU model requires the X86 host ISA")
	}
	switch c.Protocol {
	case "", "MI_example", "MESI_Two_Level":
	default:
		return fmt.Errorf("gem5build: unknown protocol %q", c.Protocol)
	}
	return nil
}

// BuildDir returns the scons build directory ("X86", "GCN3_X86", ...).
func (c StaticConfig) BuildDir() string {
	if c.GPU {
		return "GCN3_" + c.ISA
	}
	return c.ISA
}

// Target returns the binary path under the source tree.
func (c StaticConfig) Target() string {
	variant := c.Variant
	if variant == "" {
		variant = "opt"
	}
	return fmt.Sprintf("build/%s/gem5.%s", c.BuildDir(), variant)
}

// SconsCommand returns the equivalent build command line.
func (c StaticConfig) SconsCommand() string {
	cmd := "scons " + c.Target() + " -j8"
	if c.Protocol != "" {
		cmd += " PROTOCOL=" + c.Protocol
	}
	return cmd
}

// Build "compiles" the simulator: it resolves the revision, synthesizes
// the deterministic binary content, and registers the result as an
// artifact whose input is the source repository artifact.
func Build(reg *artifact.Registry, repoArt *artifact.Artifact, repo *gitstore.Repo,
	rev string, cfg StaticConfig) (*artifact.Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fullRev, err := repo.RevParse(rev)
	if err != nil {
		return nil, fmt.Errorf("gem5build: %w", err)
	}
	content := fmt.Sprintf("gem5 executable\nrevision %s\nconfig %s protocol=%q gpu=%v\n",
		fullRev, cfg.Target(), cfg.Protocol, cfg.GPU)
	name := "gem5-" + strings.ToLower(cfg.BuildDir())
	return reg.Register(artifact.Options{
		Name:    name,
		Typ:     "gem5 binary",
		CWD:     "gem5/",
		Path:    "gem5/" + cfg.Target(),
		Command: fmt.Sprintf("cd gem5; git checkout %s; %s", fullRev[:12], cfg.SconsCommand()),
		Documentation: fmt.Sprintf("gem5 built at %s with the %s static configuration",
			fullRev[:12], cfg.BuildDir()),
		Content: []byte(content),
		Inputs:  []*artifact.Artifact{repoArt},
	})
}
