package experiments

import (
	"fmt"
	"strings"

	"gem5art/internal/analysis"
	"gem5art/internal/core/run"
	"gem5art/internal/resources"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/workloads"
)

// GPUStudy holds use case 3's results: 29 Table IV workloads under both
// register allocators (58 runs, Figure 9).
type GPUStudy struct {
	Names []string
	// Ticks[allocator][app] is shader ticks.
	Ticks map[string]map[string]float64
}

// RunGPUStudy executes the register-allocator comparison through the
// gem5art stack. apps of nil means all 29 Table IV workloads.
func (e *Env) RunGPUStudy(workers int, apps []string) (*GPUStudy, error) {
	if len(apps) == 0 {
		apps = workloads.GPUWorkloadNames()
	}
	// Use case 3 needs the GPU environment resource registered too — the
	// docker image is part of the documented provenance.
	if _, err := resources.Build(e.Reg, "GCN-docker", resources.BuildOptions{}); err != nil {
		return nil, err
	}
	var specs []run.FSSpec
	for _, app := range apps {
		for _, alloc := range []gpu.Allocator{gpu.Simple, gpu.Dynamic} {
			name := fmt.Sprintf("gpu-%s-%s", app, alloc)
			spec := e.fsSpec(name, "configs/run_gpu.py", "5.4.49",
				e.BootDisk, []string{
					"app=" + app,
					"reg_alloc=" + string(alloc),
				})
			// Use case 3 pins gem5 v21.0 built with GCN3_X86.
			spec.Gem5Binary = e.Gem5GPU.Path
			spec.Gem5Artifact = e.Gem5GPU
			specs = append(specs, spec)
		}
	}
	rows, err := e.launchAll("use-case-3-gpu", workers, specs)
	if err != nil {
		return nil, err
	}

	study := &GPUStudy{
		Names: apps,
		Ticks: map[string]map[string]float64{
			string(gpu.Simple):  {},
			string(gpu.Dynamic): {},
		},
	}
	for _, r := range rows {
		for _, alloc := range []string{string(gpu.Simple), string(gpu.Dynamic)} {
			prefix, suffix := "gpu-", "-"+alloc
			if strings.HasPrefix(r.Name, prefix) && strings.HasSuffix(r.Name, suffix) {
				app := strings.TrimSuffix(strings.TrimPrefix(r.Name, prefix), suffix)
				study.Ticks[alloc][app] = r.SimSeconds * 1e9 // 1 GHz shader
			}
		}
	}
	return study, nil
}

// Speedup returns Figure 9's quantity: dynamic-allocator speedup
// normalized to the simple allocator (>1 = dynamic faster).
func (s *GPUStudy) Speedup(app string) float64 {
	d := s.Ticks[string(gpu.Dynamic)][app]
	if d == 0 {
		return 0
	}
	return s.Ticks[string(gpu.Simple)][app] / d
}

// MeanSimpleAdvantage is the paper's headline: the mean of simple's
// per-app relative performance (1.08 = simple 8% better on average).
func (s *GPUStudy) MeanSimpleAdvantage() float64 {
	var vals []float64
	for _, app := range s.Names {
		if sp := s.Speedup(app); sp > 0 {
			vals = append(vals, 1/sp)
		}
	}
	return analysis.Mean(vals)
}

// RenderFig9 renders Figure 9.
func (s *GPUStudy) RenderFig9() string {
	ser := analysis.Series{Name: "dynamic/simple"}
	for _, app := range s.Names {
		ser.Labels = append(ser.Labels, app)
		ser.Values = append(ser.Values, s.Speedup(app))
	}
	chart := analysis.BarChart(
		"Figure 9: GPU speedup with dynamic register allocator, normalized to simple",
		[]analysis.Series{ser}, 40)
	return chart + fmt.Sprintf("mean simple-over-dynamic advantage: %.3f (paper: ~1.08)\n",
		s.MeanSimpleAdvantage())
}

// RenderTable3 prints the GPU configuration (Table III).
func RenderTable3() string {
	cfg := gpu.Config{}
	cfg.Defaults()
	var sb strings.Builder
	sb.WriteString("== Table III: Key Configuration Parameters for Use-Case 3 ==\n")
	rows := [][2]string{
		{"Number of CUs", fmt.Sprint(cfg.CUs)},
		{"SIMD16s (vector ALUs)", fmt.Sprintf("%d per CU", cfg.SIMDsPerCU)},
		{"GPU Frequency", "1 GHz"},
		{"Max Wavefronts", fmt.Sprintf("%d per SIMD16 (%d per CU)",
			cfg.MaxWavesPerSIMD, cfg.MaxWavesPerSIMD*cfg.SIMDsPerCU)},
		{"Vector Registers", fmt.Sprintf("%dK per CU", cfg.VRegsPerCU/1024)},
		{"Scalar Registers", fmt.Sprintf("%dK per CU", cfg.SRegsPerCU/1024)},
		{"LDS", fmt.Sprintf("%d KB per CU", cfg.LDSPerCU/1024)},
		{"L1 instruction cache", "32 KB shared between every 4 CUs"},
		{"L1 data caches (1 per CU)", "16 KB per CU"},
		{"Unified L2 cache", "256 KB"},
		{"Main Memory", "1 channel, DDR3_1600_8x8"},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %s\n", r[0], r[1])
	}
	return sb.String()
}

// RenderTable4 prints the Table IV benchmark/input list.
func RenderTable4() string {
	var sb strings.Builder
	sb.WriteString("== Table IV: Benchmarks & Input Sizes for Use-Case 3 ==\n")
	for _, w := range workloads.GPUWorkloads() {
		fmt.Fprintf(&sb, "%-26s %-12s %s\n", w.Kernel.Name, w.Suite, w.Input)
	}
	return sb.String()
}

// RenderTable1 prints the resource catalog (Table I).
func RenderTable1() string {
	return "== Table I: The gem5 resources ==\n" + resources.Table()
}
