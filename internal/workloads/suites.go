package workloads

import (
	"fmt"

	"gem5art/internal/sim/isa"
)

// This file provides synthetic generators for the remaining benchmark
// suites gem5-resources carries (Table I): NPB, GAPBS, SPEC CPU, and the
// boot-exit test workload. They exist so the resource catalog's disk
// images contain real executables and so users can run suites beyond
// PARSEC through the same pipeline.

// NPBClass is an NPB problem class (S, A, B...); it scales iterations.
type NPBClass string

// NPB classes supported by the generator.
const (
	NPBClassS NPBClass = "S"
	NPBClassA NPBClass = "A"
	NPBClassB NPBClass = "B"
)

func npbScale(c NPBClass) int64 {
	switch c {
	case NPBClassA:
		return 4
	case NPBClassB:
		return 16
	default:
		return 1
	}
}

// NPBKernels lists the NAS Parallel Benchmark kernels modeled.
var NPBKernels = []string{"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp", "ua"}

// NPBProgram generates one NPB kernel for one thread.
func NPBProgram(kernel string, class NPBClass, core int) (*isa.Program, error) {
	profiles := map[string]isa.GenSpec{
		"bt": {BodyOps: 48, Mix: isa.Mix{Load: 0.28, Store: 0.12, MulDiv: 0.18}, FootprintWords: 1 << 15, StrideWords: 3},
		"cg": {BodyOps: 40, Mix: isa.Mix{Load: 0.40, Store: 0.08, MulDiv: 0.10}, FootprintWords: 1 << 17, StrideWords: 13},
		"ep": {BodyOps: 44, Mix: isa.Mix{MulDiv: 0.30, Branch: 0.08}, FootprintWords: 1 << 10, StrideWords: 1},
		"ft": {BodyOps: 46, Mix: isa.Mix{Load: 0.30, Store: 0.16, MulDiv: 0.16}, FootprintWords: 1 << 16, StrideWords: 8},
		"is": {BodyOps: 36, Mix: isa.Mix{Load: 0.34, Store: 0.20, Branch: 0.10}, FootprintWords: 1 << 16, StrideWords: 17},
		"lu": {BodyOps: 48, Mix: isa.Mix{Load: 0.30, Store: 0.12, MulDiv: 0.14}, FootprintWords: 1 << 15, StrideWords: 5},
		"mg": {BodyOps: 42, Mix: isa.Mix{Load: 0.36, Store: 0.14, MulDiv: 0.08}, FootprintWords: 1 << 17, StrideWords: 9},
		"sp": {BodyOps: 46, Mix: isa.Mix{Load: 0.28, Store: 0.14, MulDiv: 0.16}, FootprintWords: 1 << 15, StrideWords: 4},
		"ua": {BodyOps: 44, Mix: isa.Mix{Load: 0.30, Store: 0.12, MulDiv: 0.12, Branch: 0.08}, FootprintWords: 1 << 15, StrideWords: 11},
	}
	spec, ok := profiles[kernel]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown NPB kernel %q", kernel)
	}
	spec.Name = fmt.Sprintf("npb-%s-%s-c%d", kernel, class, core)
	spec.Seed = int64(len(kernel))*7919 + int64(core) + npbScale(class)
	spec.Iterations = 800 * npbScale(class)
	spec.SharedWords = 8
	return isa.Generate(spec), nil
}

// GAPBSKernels lists the GAP Benchmark Suite kernels modeled.
var GAPBSKernels = []string{"bc", "bfs", "cc", "pr", "sssp", "tc"}

// GAPBSProgram generates one GAPBS kernel: graph workloads are dominated
// by irregular pointer-chasing loads with poor locality.
func GAPBSProgram(kernel string, scale int, core int) (*isa.Program, error) {
	valid := false
	for _, k := range GAPBSKernels {
		if k == kernel {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("workloads: unknown GAPBS kernel %q", kernel)
	}
	if scale < 1 {
		scale = 1
	}
	return isa.Generate(isa.GenSpec{
		Name:           fmt.Sprintf("gapbs-%s-g%d-c%d", kernel, scale, core),
		Seed:           int64(len(kernel))*104729 + int64(core),
		Iterations:     int64(600 * scale),
		BodyOps:        36,
		Mix:            isa.Mix{Load: 0.45, Store: 0.06, Branch: 0.16, Atomic: 0.01},
		FootprintWords: 1 << (16 + scale%4),
		StrideWords:    31, // irregular access
		SharedWords:    16,
	}), nil
}

// SPECBenchmarks lists modeled SPEC CPU workload names (a representative
// subset; the resource's licensing gate is what matters to the catalog).
var SPECBenchmarks = []string{"perlbench", "gcc", "mcf", "omnetpp", "x264", "xz"}

// SPECProgram generates a single-threaded SPEC-style workload.
func SPECProgram(name string, core int) (*isa.Program, error) {
	profiles := map[string]isa.GenSpec{
		"perlbench": {BodyOps: 40, Mix: isa.Mix{Load: 0.28, Store: 0.12, Branch: 0.18}, FootprintWords: 1 << 14, StrideWords: 5},
		"gcc":       {BodyOps: 44, Mix: isa.Mix{Load: 0.30, Store: 0.12, Branch: 0.16}, FootprintWords: 1 << 15, StrideWords: 7},
		"mcf":       {BodyOps: 36, Mix: isa.Mix{Load: 0.44, Store: 0.08, Branch: 0.10}, FootprintWords: 1 << 18, StrideWords: 29},
		"omnetpp":   {BodyOps: 40, Mix: isa.Mix{Load: 0.36, Store: 0.14, Branch: 0.14}, FootprintWords: 1 << 16, StrideWords: 13},
		"x264":      {BodyOps: 48, Mix: isa.Mix{Load: 0.26, Store: 0.12, MulDiv: 0.18}, FootprintWords: 1 << 14, StrideWords: 2},
		"xz":        {BodyOps: 38, Mix: isa.Mix{Load: 0.32, Store: 0.16, Branch: 0.12}, FootprintWords: 1 << 15, StrideWords: 3},
	}
	spec, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown SPEC benchmark %q", name)
	}
	spec.Name = fmt.Sprintf("spec-%s-c%d", name, core)
	spec.Seed = int64(len(name))*31337 + int64(core)
	spec.Iterations = 1200
	return isa.Generate(spec), nil
}

// ImageBenchmarks lists the benchmarks a disk image of suite ships as
// /benchmarks/<suite>/<bench>, each built by ImageProgram. PARSEC images
// carry application descriptors instead and are not listed here.
func ImageBenchmarks(suite string) ([]string, error) {
	switch suite {
	case "npb":
		return NPBKernels, nil
	case "gapbs":
		return GAPBSKernels, nil
	case "spec":
		return SPECBenchmarks, nil
	case "boot-exit":
		return []string{"boot-exit"}, nil
	}
	return nil, fmt.Errorf("workloads: unknown suite %q", suite)
}

// ImageProgram is the program a disk image ships as
// /benchmarks/<suite>/<bench>: the suite generator's core-0 program, NPB
// at class S and GAPBS at scale 1 (boot-exit has the one program). A
// worker that regenerates a benchmark instead of reading the image runs
// the same program.
func ImageProgram(suite, bench string) (*isa.Program, error) {
	switch suite {
	case "npb":
		return NPBProgram(bench, NPBClassS, 0)
	case "gapbs":
		return GAPBSProgram(bench, 1, 0)
	case "spec":
		return SPECProgram(bench, 0)
	case "boot-exit":
		return BootExitProgram(), nil
	}
	return nil, fmt.Errorf("workloads: unknown suite %q", suite)
}

// BootExitProgram is the boot-exit test resource's workload: the minimal
// "boot the kernel, exit via m5" program.
func BootExitProgram() *isa.Program {
	return isa.Generate(isa.GenSpec{
		Name:           "boot-exit",
		Seed:           42,
		Iterations:     300,
		BodyOps:        48,
		Mix:            isa.Mix{Load: 0.25, Store: 0.12, Branch: 0.15, MulDiv: 0.02, Atomic: 0.02},
		FootprintWords: 1 << 15,
		StrideWords:    7,
		SharedWords:    16,
	})
}
