// Package resources is the gem5-resources analogue (§V, Table I): a
// curated catalog of components that are not needed to build the
// simulator but are needed to *use* it — disk images preloaded with
// benchmark suites, kernels, test binaries, and GPU workload
// environments. Every resource carries the recipe that built it, so a
// user can reproduce the pre-built artifact; licensed suites (SPEC) ship
// recipes only.
package resources

import (
	"fmt"
	"strings"
)

// Kind classifies a resource, matching Table I's Type column.
type Kind string

// Resource kinds.
const (
	KindBenchmark   Kind = "Benchmark"
	KindTest        Kind = "Test"
	KindKernel      Kind = "Kernel"
	KindApplication Kind = "Application"
	KindEnvironment Kind = "Environment"
)

// Resource is one catalog entry.
type Resource struct {
	Name        string
	Kinds       []Kind
	Description string
	// GPUVariant marks resources that require the GCN3_X86 gem5 build.
	GPUVariant bool
	// Licensed marks suites whose binaries cannot be redistributed; only
	// build scripts are provided and Build requires license material.
	Licensed bool
}

// Catalog returns the 17 resources of Table I in table order.
func Catalog() []Resource {
	return []Resource{
		{Name: "boot-exit", Kinds: []Kind{KindBenchmark, KindTest},
			Description: "Scripts and binaries that boot a Linux kernel with an Ubuntu 18.04 server userland and exit; the FS-mode test suite."},
		{Name: "gapbs", Kinds: []Kind{KindBenchmark},
			Description: "GAP Benchmark Suite under a Linux kernel and Ubuntu 18.04 userland in FS mode."},
		{Name: "hack-back", Kinds: []Kind{KindBenchmark},
			Description: "Checkpoint after boot, then execute a host-provided script in FS simulation."},
		{Name: "linux-kernel", Kinds: []Kind{KindKernel},
			Description: "Linux kernel configurations and documentation for compiling kernels."},
		{Name: "npb", Kinds: []Kind{KindBenchmark},
			Description: "NAS Parallel Benchmarks under a Linux kernel and Ubuntu 18.04 userland in FS mode."},
		{Name: "parsec", Kinds: []Kind{KindBenchmark},
			Description: "PARSEC benchmark suite under a Linux kernel and Ubuntu 18.04 userland in FS mode."},
		{Name: "riscv-fs", Kinds: []Kind{KindTest},
			Description: "Berkeley bootloader with Linux payload and disk image for RISC-V FS simulation."},
		{Name: "spec-2006", Kinds: []Kind{KindBenchmark}, Licensed: true,
			Description: "SPEC CPU 2006 under FS mode; licensing forbids pre-made disk images."},
		{Name: "spec-2017", Kinds: []Kind{KindBenchmark}, Licensed: true,
			Description: "SPEC CPU 2017 under FS mode; licensing forbids pre-made disk images."},
		{Name: "GCN-docker", Kinds: []Kind{KindEnvironment}, GPUVariant: true,
			Description: "Docker image with ROCm 1.6 and GCC 5.4 for building and running GCN3 GPU applications."},
		{Name: "HeteroSync", Kinds: []Kind{KindBenchmark}, GPUVariant: true,
			Description: "Fine-grained synchronization benchmarks for tightly-coupled GPUs."},
		{Name: "DNNMark", Kinds: []Kind{KindBenchmark}, GPUVariant: true,
			Description: "Benchmark framework for primitive deep neural network workloads."},
		{Name: "halo-finder", Kinds: []Kind{KindApplication}, GPUVariant: true,
			Description: "GPU-accelerated HACC halo finder, a DoE cosmology application."},
		{Name: "Pennant", Kinds: []Kind{KindApplication}, GPUVariant: true,
			Description: "Unstructured-mesh mini-app for advanced architecture research."},
		{Name: "LULESH", Kinds: []Kind{KindApplication}, GPUVariant: true,
			Description: "DoE hydrodynamics proxy application."},
		{Name: "hip-samples", Kinds: []Kind{KindApplication}, GPUVariant: true,
			Description: "HIP sample applications demonstrating GPU programming concepts."},
		{Name: "gem5-tests", Kinds: []Kind{KindTest},
			Description: "asmtest, insttest, riscv-tests, simple (m5ops), and square GPU test."},
	}
}

// Find returns the named resource.
func Find(name string) (Resource, error) {
	for _, r := range Catalog() {
		if strings.EqualFold(r.Name, name) {
			return r, nil
		}
	}
	return Resource{}, fmt.Errorf("resources: no resource named %q", name)
}

// Names returns catalog names in table order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, r := range cat {
		out[i] = r.Name
	}
	return out
}

// CompatStatus is one cell of the resources.gem5.org status page.
type CompatStatus string

// Compatibility states.
const (
	StatusSupported CompatStatus = "supported"
	StatusUntested  CompatStatus = "untested"
)

// Gem5Releases lists the simulator releases the status page tracks.
var Gem5Releases = []string{"v20.1.0.4", "v21.0"}

// Status reports the working status of every resource against a gem5
// release — the analogue of http://resources.gem5.org. GPU resources
// require the GCN3_X86 variant that shipped with v21.0 (use case 3 pins
// gem5 v21.0); everything else works from v20.1.
func Status(release string) (map[string]CompatStatus, error) {
	valid := false
	for _, r := range Gem5Releases {
		if r == release {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("resources: unknown gem5 release %q", release)
	}
	out := make(map[string]CompatStatus)
	for _, r := range Catalog() {
		switch {
		case r.GPUVariant && release == "v20.1.0.4":
			out[r.Name] = StatusUntested
		default:
			out[r.Name] = StatusSupported
		}
	}
	return out, nil
}

// Table renders the catalog as aligned text (cmd/gem5resources list).
func Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %-22s %s\n", "NAME", "TYPE", "DESCRIPTION")
	for _, r := range Catalog() {
		kinds := make([]string, len(r.Kinds))
		for i, k := range r.Kinds {
			kinds[i] = string(k)
		}
		desc := r.Description
		if r.Licensed {
			desc += " [license required]"
		}
		if r.GPUVariant {
			desc += " [GCN3_X86]"
		}
		fmt.Fprintf(&sb, "%-14s %-22s %s\n", r.Name, strings.Join(kinds, " / "), desc)
	}
	return sb.String()
}
