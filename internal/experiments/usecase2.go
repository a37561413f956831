package experiments

import (
	"fmt"

	"gem5art/internal/analysis"
	"gem5art/internal/core/run"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/kernel"
)

// BootStudy holds use case 2's results: the Linux boot sweep (Figure 8).
type BootStudy struct {
	Cells   []kernel.Spec
	Outcome map[string]string // Spec.String() -> outcome
}

// RunBootSweep executes boot cells through the gem5art stack. cells of
// nil means the paper's full 480-cell cross product.
func (e *Env) RunBootSweep(workers int, cells []kernel.Spec) (*BootStudy, error) {
	if cells == nil {
		cells = kernel.Sweep()
	}
	var specs []run.FSSpec
	for i, c := range cells {
		name := fmt.Sprintf("boot-%04d-%s-%s-%s-%dc-%s",
			i, c.Kernel, c.CPU, c.Mem, c.Cores, c.Boot)
		specs = append(specs, e.fsSpec(name, "configs/run_exit.py", string(c.Kernel),
			e.BootDisk, []string{
				"kernel=" + string(c.Kernel),
				"cpu=" + string(c.CPU),
				"mem_sys=" + c.Mem,
				fmt.Sprintf("num_cpus=%d", c.Cores),
				"boot_type=" + string(c.Boot),
			}))
	}
	rows, err := e.launchAll("use-case-2-boot", workers, specs)
	if err != nil {
		return nil, err
	}

	study := &BootStudy{Cells: cells, Outcome: map[string]string{}}
	for _, r := range rows {
		spec := kernel.Spec{
			Kernel: kernel.Version(r.Params["kernel"]),
			CPU:    cpu.Model(r.Params["cpu"]),
			Mem:    r.Params["mem_sys"],
			Cores:  atoiSafe(r.Params["num_cpus"]),
			Boot:   kernel.BootType(r.Params["boot_type"]),
		}
		study.Outcome[spec.String()] = r.Outcome
	}
	return study, nil
}

// Counts aggregates outcomes, optionally restricted to one CPU model.
func (s *BootStudy) Counts(model cpu.Model) map[string]int {
	out := map[string]int{}
	for _, c := range s.Cells {
		if model != "" && c.CPU != model {
			continue
		}
		out[s.Outcome[c.String()]]++
	}
	return out
}

// outcomeGlyph compresses an outcome for the matrix cells.
func outcomeGlyph(o string) string {
	switch kernel.Outcome(o) {
	case kernel.Success:
		return "ok"
	case kernel.Unsupported:
		return "--"
	case kernel.KernelPanic:
		return "PA"
	case kernel.SimCrash:
		return "SF"
	case kernel.Deadlock:
		return "DL"
	case kernel.Timeout:
		return "TO"
	}
	return "??"
}

// RenderFig8 renders Figure 8 as one matrix per (boot type, memory
// system): rows are CPU models, columns are kernel x core-count.
func (s *BootStudy) RenderFig8() string {
	out := ""
	for _, boot := range kernel.BootTypes {
		for _, mem := range kernel.MemSystems {
			var cols []string
			for _, k := range kernel.BootKernels {
				for _, n := range kernel.CoreCounts {
					cols = append(cols, fmt.Sprintf("%s/%d", shortKernel(k), n))
				}
			}
			var rows []string
			for _, m := range cpu.AllModels {
				rows = append(rows, string(m))
			}
			title := fmt.Sprintf("Figure 8 (%s boot, %s): ok=success --=unsupported PA=panic SF=segfault DL=deadlock TO=timeout",
				boot, mem)
			out += analysis.Matrix(title, rows, cols, func(r, c string) string {
				var kv kernel.Version
				var cores int
				for _, k := range kernel.BootKernels {
					for _, n := range kernel.CoreCounts {
						if fmt.Sprintf("%s/%d", shortKernel(k), n) == c {
							kv, cores = k, n
						}
					}
				}
				spec := kernel.Spec{Kernel: kv, CPU: cpu.Model(r), Mem: mem,
					Cores: cores, Boot: boot}
				return outcomeGlyph(s.Outcome[spec.String()])
			})
			out += "\n"
		}
	}
	return out
}

func shortKernel(v kernel.Version) string {
	s := string(v)
	// "4.14.134" -> "4.14"
	dots := 0
	for i, c := range s {
		if c == '.' {
			dots++
			if dots == 2 {
				return s[:i]
			}
		}
	}
	return s
}

// Summary renders the O3 narrative numbers the paper reports.
func (s *BootStudy) Summary() string {
	all := s.Counts("")
	o3 := s.Counts(cpu.O3)
	return fmt.Sprintf(
		"boot sweep: %d cells; all outcomes %v\nO3CPU: success=%d panic=%d segfault=%d deadlock=%d timeout=%d unsupported=%d",
		len(s.Cells), all,
		o3["success"], o3["kernel-panic"], o3["sim-crash"], o3["deadlock"],
		o3["timeout"], o3["unsupported"])
}
