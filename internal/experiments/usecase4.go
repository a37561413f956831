package experiments

import (
	"fmt"
	"strings"

	"gem5art/internal/analysis"
	"gem5art/internal/core/run"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/kernel"
)

// Use case 4: the energy axis the paper's sweeps lack. With the energy
// model attached (FSSpec.Energy = "auto", so every cell gets the preset
// matching its own CPU model and memory system), boot each OS version ×
// CPU model cell and compare total joules, average watts, and EDP —
// which kernel costs more energy to boot, and how the answer changes
// with microarchitectural detail. Cells go through the regular launch
// path, so the simulation cache and shared-boot machinery apply; the
// energy model salts the cache key, so energy-enabled cells never
// replay plain ones.

// EnergyStudy holds use case 4's results.
type EnergyStudy struct {
	Kernels []kernel.Version
	CPUs    []cpu.Model
	Rows    []analysis.RunRow
}

// energyRunPrefix distinguishes use case 4's run names from the other
// boot-exit sweeps sharing the database.
const energyRunPrefix = "energy-"

// RunEnergySweep executes the energy sweep: kernels × CPU models at one
// core on the classic memory system with init boot — the cell shape
// every CPU model supports, so the comparison is apples-to-apples. Nil
// axes default to the five LTS kernels and all four CPU models.
func (e *Env) RunEnergySweep(workers int, kernels []kernel.Version, cpus []cpu.Model) (*EnergyStudy, error) {
	if kernels == nil {
		kernels = kernel.BootKernels
	}
	if cpus == nil {
		cpus = cpu.AllModels
	}
	var specs []run.FSSpec
	i := 0
	for _, k := range kernels {
		for _, c := range cpus {
			name := fmt.Sprintf("%s%04d-%s-%s", energyRunPrefix, i, k, c)
			spec := e.fsSpec(name, "configs/run_exit.py", string(k), e.BootDisk, []string{
				"kernel=" + string(k),
				"cpu=" + string(c),
				"mem_sys=classic",
				"num_cpus=1",
				"boot_type=" + string(kernel.BootInit),
			})
			spec.Energy = "auto"
			specs = append(specs, spec)
			i++
		}
	}
	rows, err := e.launchAll("use-case-4-energy", workers, specs)
	if err != nil {
		return nil, err
	}
	return &EnergyStudy{Kernels: kernels, CPUs: cpus, Rows: rows}, nil
}

// Joules returns the total boot energy of one cell (0 if absent).
func (s *EnergyStudy) Joules(k kernel.Version, c cpu.Model) float64 {
	for _, r := range s.Rows {
		if r.Params["kernel"] == string(k) && r.Params["cpu"] == string(c) {
			return r.Joules
		}
	}
	return 0
}

// JoulesChart renders boot energy grouped by kernel, one bar per CPU
// model.
func (s *EnergyStudy) JoulesChart() string {
	return analysis.BarChart("Use case 4: boot energy (J) by OS version x CPU model",
		analysis.GroupBy(s.Rows, "cpu", "kernel", analysis.MetricJoules), 40)
}

// EDPChart renders the energy-delay product the same way — the metric
// that penalizes slow-but-frugal and fast-but-hungry configurations
// alike.
func (s *EnergyStudy) EDPChart() string {
	return analysis.BarChart("Use case 4: boot EDP (J*s) by OS version x CPU model",
		analysis.GroupBy(s.Rows, "cpu", "kernel", analysis.MetricEDP), 40)
}

// CSV renders the study's energy columns for external tools.
func (s *EnergyStudy) CSV() string {
	var sb strings.Builder
	_ = analysis.EnergyCSV(&sb, s.Rows, "kernel", "cpu")
	return sb.String()
}

// Summary reports the cheapest and most expensive cells by energy.
func (s *EnergyStudy) Summary() string {
	if len(s.Rows) == 0 {
		return "energy sweep: no completed runs"
	}
	min, max := s.Rows[0], s.Rows[0]
	for _, r := range s.Rows[1:] {
		if r.Joules < min.Joules {
			min = r
		}
		if r.Joules > max.Joules {
			max = r
		}
	}
	return fmt.Sprintf(
		"energy sweep: %d cells; cheapest %s/%s %.3e J; most expensive %s/%s %.3e J (%.1fx)",
		len(s.Rows),
		min.Params["kernel"], min.Params["cpu"], min.Joules,
		max.Params["kernel"], max.Params["cpu"], max.Joules,
		safeRatio(max.Joules, min.Joules))
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
