package run

import (
	"fmt"

	"gem5art/internal/sim"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
	"gem5art/internal/workloads"
)

func decodeProgram(bin []byte) (*isa.Program, error) {
	prog, err := isa.Decode(bin)
	if err != nil {
		return nil, fmt.Errorf("run: bad benchmark binary: %w", err)
	}
	if err := isa.Validate(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func buildMemParam(name string, cores int) (mem.System, error) {
	switch name {
	case "classic":
		return mem.NewClassic(cores, mem.ClassicConfig{}), nil
	case "ruby.MI_example":
		return mem.NewRuby(cores, mem.MIExample, mem.ClassicConfig{}), nil
	case "ruby.MESI_Two_Level":
		return mem.NewRuby(cores, mem.MESITwoLevel, mem.ClassicConfig{}), nil
	}
	return nil, fmt.Errorf("run: unknown memory system %q", name)
}

// workloadsNPB builds a small encoded binary for SE-mode tests.
func workloadsNPB() ([]byte, error) {
	p, err := workloads.NPBProgram("ep", workloads.NPBClassS, 0)
	if err != nil {
		return nil, err
	}
	return isa.Encode(p), nil
}

// renderConfig builds the config.ini dump describing the simulated
// system — the analogue of the configuration gem5 writes to its outdir.
func renderConfig(model string, cores int, memKind, workload string) string {
	root := sim.NewConfig("system", "System")
	root.Set("mem_mode", "timing")
	root.Set("workload", workload)
	for i := 0; i < cores; i++ {
		c := root.Child(fmt.Sprintf("cpu%d", i), model)
		c.Set("clock", "3GHz")
		c.Child("dcache", "Cache").Set("size", "32kB").Set("assoc", 4)
	}
	m := root.Child("membus", memKind)
	m.Child("dram", "DDR3_1600_8x8").Set("channels", 1)
	return root.Render()
}
