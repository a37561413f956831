package energy

import (
	"fmt"
	"sort"
	"strings"
)

// Built-in presets: first-order per-event coefficients in the style of
// McPAT/CACTI-derived numbers at a nominal 22nm node — ~10 pJ for an L1
// access, tens of pJ for L2/directory traffic, ~20 nJ for a DRAM access,
// and per-instruction core energy scaling with microarchitectural
// detail (an out-of-order core spends several times the energy per
// committed instruction of an in-order one on speculation, scheduling,
// and larger structures; the KVM model stands in for near-native
// virtualized execution). The point of the presets is a consistent,
// documented baseline for cross-configuration comparisons — joules/EDP
// trends across OS versions and CPU models — not absolute validation
// against silicon. Custom JSON models override them (see json.go).

// Core-model coefficients, keyed by cpu.Model string.
var coreModels = map[string]Component{
	"AtomicSimpleCPU": {
		Name:    "core",
		Dynamic: map[string]float64{"sim_insts": 35},
		StaticW: 0.5,
	},
	"TimingSimpleCPU": {
		Name:    "core",
		Dynamic: map[string]float64{"sim_insts": 40},
		StaticW: 0.6,
	},
	"O3CPU": {
		Name: "core",
		Dynamic: map[string]float64{
			"sim_insts":                    95,
			"system.cpu.branchMispredicts": 300, // flushed speculative work
		},
		StaticW:       1.2,
		StaticWPerGHz: 0.2, // clock tree + always-on OoO structures
	},
	"kvmCPU": {
		Name:    "core",
		Dynamic: map[string]float64{"sim_insts": 8},
		StaticW: 0.2,
	},
}

// classicMem models the classic hierarchy: private L1s, shared L2 with
// next-line prefetch, DRAM behind it.
var classicMem = []Component{
	{
		Name:    "l1",
		Dynamic: map[string]float64{"system.l1.hits": 10, "system.l1.misses": 12},
		StaticW: 0.05,
	},
	{
		Name: "l2",
		Dynamic: map[string]float64{
			"system.l2.hits":       60,
			"system.l2.misses":     65,
			"system.l2.prefetches": 60,
		},
		StaticW: 0.30,
	},
	{
		Name: "dram",
		Dynamic: map[string]float64{
			"system.mem.requests": 20_000,
			"system.mem.atomics":  21_000, // counted by no system (0 J); kept so Salt holds
		},
		StaticW: 0.80, // refresh + PHY
	},
}

// rubyMem models the Ruby two-level protocols: private L1s, a directory
// moving coherence traffic, DRAM fills.
var rubyMem = []Component{
	{
		Name:    "l1",
		Dynamic: map[string]float64{"ruby.l1.hits": 10, "ruby.l1.misses": 12},
		StaticW: 0.05,
	},
	{
		Name: "directory",
		Dynamic: map[string]float64{
			"ruby.GETS":          70,
			"ruby.GETX":          75,
			"ruby.invalidations": 40,
			"ruby.forwards":      55,
		},
		StaticW: 0.35,
	},
	{
		Name: "dram",
		Dynamic: map[string]float64{
			"ruby.mem_reads":     20_000,
			"system.mem.atomics": 21_000,
		},
		StaticW: 0.80,
	},
}

// gpuModel covers the GCN3 shader counters the GPU run handler reports.
var gpuModel = Model{
	Name: "gpu",
	Components: []Component{
		{
			Name: "shader",
			Dynamic: map[string]float64{
				"gpu_ops":    25,
				"dep_stalls": 5, // stalled lanes still clock
			},
			StaticW:       4.0,
			StaticWPerGHz: 1.0,
		},
		{
			Name: "gpu_mem",
			Dynamic: map[string]float64{
				"mem_accesses": 18_000,
				"atomic_ops":   19_000,
			},
			StaticW: 1.5,
		},
	},
}

func cloneComponents(cs []Component) []Component {
	out := make([]Component, len(cs))
	for i, c := range cs {
		dyn := make(map[string]float64, len(c.Dynamic))
		for k, v := range c.Dynamic {
			dyn[k] = v
		}
		c.Dynamic = dyn
		out[i] = c
	}
	return out
}

// shortCPU maps cpu.Model strings to preset-name fragments.
var shortCPU = map[string]string{
	"AtomicSimpleCPU": "atomic",
	"TimingSimpleCPU": "timing",
	"O3CPU":           "o3",
	"kvmCPU":          "kvm",
}

// PresetFor composes the built-in model for a CPU model × memory system
// combination. memKind is "classic" or any "ruby.*" protocol; cpuModel
// is a cpu.Model string. Unknown combinations return an error naming
// the axis that failed.
func PresetFor(cpuModel, memKind string) (*Model, error) {
	core, ok := coreModels[cpuModel]
	if !ok {
		return nil, fmt.Errorf("energy: no preset for CPU model %q", cpuModel)
	}
	var memComps []Component
	var memShort string
	switch {
	case memKind == "classic":
		memComps, memShort = classicMem, "classic"
	case strings.HasPrefix(memKind, "ruby"):
		memComps, memShort = rubyMem, "ruby"
	default:
		return nil, fmt.Errorf("energy: no preset for memory system %q", memKind)
	}
	m := &Model{
		Name:       shortCPU[cpuModel] + "-" + memShort,
		Components: append(cloneComponents([]Component{core}), cloneComponents(memComps)...),
	}
	return m, nil
}

// Preset returns a built-in model by name: "<cpu>-<mem>" for every CPU
// model short name (atomic, timing, o3, kvm) × (classic, ruby), plus
// "gpu". The returned model is a private copy.
func Preset(name string) (*Model, bool) {
	if name == "gpu" {
		m := Model{Name: "gpu", Components: cloneComponents(gpuModel.Components)}
		return &m, true
	}
	for cpuModel, short := range shortCPU {
		var memKind string
		switch name {
		case short + "-classic":
			memKind = "classic"
		case short + "-ruby":
			memKind = "ruby"
		default:
			continue
		}
		m, err := PresetFor(cpuModel, memKind)
		if err != nil {
			return nil, false
		}
		return m, true
	}
	return nil, false
}

// PresetNames lists every built-in preset name, sorted.
func PresetNames() []string {
	names := []string{"gpu"}
	for _, short := range shortCPU {
		names = append(names, short+"-classic", short+"-ruby")
	}
	sort.Strings(names)
	return names
}

// Resolve turns an energy spec string into a model:
//
//   - "auto" composes the preset for the run's own CPU model and memory
//     system (the arguments);
//   - a built-in preset name ("o3-ruby", "gpu", ...) loads that preset;
//   - anything containing a path separator or ending in ".json" loads
//     and validates a custom JSON model file.
//
// This is the single entry point the CLIs and run handlers share, so a
// spec string means the same thing everywhere.
func Resolve(spec, cpuModel, memKind string) (*Model, error) {
	switch {
	case spec == "":
		return nil, fmt.Errorf("energy: empty model spec")
	case spec == "auto":
		return PresetFor(cpuModel, memKind)
	case strings.ContainsAny(spec, "/\\") || strings.HasSuffix(spec, ".json"):
		return Load(spec)
	default:
		if m, ok := Preset(spec); ok {
			return m, nil
		}
		return nil, fmt.Errorf("energy: unknown preset %q (have %s, or pass a .json model file)",
			spec, strings.Join(PresetNames(), ", "))
	}
}
