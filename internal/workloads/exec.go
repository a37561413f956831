package workloads

import (
	"fmt"

	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/mem"
)

// ParsecMetrics is the per-run measurement used by Figures 6 and 7.
type ParsecMetrics struct {
	App        string
	OS         string
	Cores      int
	SimSeconds float64
	Insts      uint64
	IPC        float64
}

// ExecParsec runs one PARSEC configuration on the Table II system
// (TimingSimpleCPU, one DDR3 channel, classic hierarchy) and returns its
// metrics. It is the unit of work use case 1 fans out 60 of.
func ExecParsec(app ParsecApp, os OSImage, cores int) (ParsecMetrics, error) {
	system, _ := parsecSystem(app, os, cores)
	defer system.Release()
	res := system.Run(0)
	if !res.Finished {
		return ParsecMetrics{}, fmt.Errorf("workloads: %s on %s with %d cores did not finish",
			app.Name, os.Name, cores)
	}
	return ParsecMetrics{
		App:        app.Name,
		OS:         os.Name,
		Cores:      cores,
		SimSeconds: res.SimTicks.Seconds(),
		Insts:      res.Insts,
		IPC:        system.Stats().Values()["ipc"],
	}, nil
}

// parsecSystem builds the Table II system for one configuration, with
// the application's programs loaded, and returns it with its memory.
func parsecSystem(app ParsecApp, os OSImage, cores int) (*cpu.System, *mem.Classic) {
	// Table II fixes the CPU and DRAM; the cache hierarchy follows the
	// PARSEC run script's defaults (32 KiB L1s, 1 MiB shared L2).
	m := mem.NewClassic(cores, mem.ClassicConfig{L2Bytes: 1 << 20})
	system := cpu.NewSystem(cpu.Config{Model: cpu.Timing, Cores: cores}, m)
	for i, p := range app.Programs(os, cores) {
		system.LoadProgram(i, p)
	}
	return system, m
}

// ParsecCoreCounts is Table II's CPU-count axis.
var ParsecCoreCounts = []int{1, 2, 8}
