// Command gem5sim runs a single full-system simulation directly — the
// analogue of invoking the gem5 binary by hand, without the gem5art
// bookkeeping. It is useful for poking at the simulator models.
//
// Usage:
//
//	gem5sim -workload boot -kernel 5.4.49 -cpu TimingSimpleCPU \
//	        -mem classic -cores 2 -boot init
//	gem5sim -workload boot -cpu O3CPU -mem ruby.MESI_Two_Level \
//	        -cores 8 -parallel 4
//	gem5sim -workload parsec -benchmark dedup -os ubuntu-20.04 -cores 8
//	gem5sim -workload gpu -benchmark FAMutex -alloc dynamic
//
// -parallel N runs boot workloads on the parallel component/port engine
// with N workers. Results are deterministic — identical for every N —
// but come from a different timing model than the default single-queue
// engine, so compare parallel runs only with other parallel runs.
//
// -energy enables per-component energy accounting: pass a built-in
// preset name, "auto" to match the run's CPU/memory configuration, or a
// path to a JSON model file; per-component joules, average watts, and
// EDP print after the run (and appear in the stat dump). -energy-check
// validates a model file (or preset) and reports which of its activity
// counters the chosen configuration provides, without simulating:
//
//	gem5sim -workload boot -cpu O3CPU -mem ruby.MESI_Two_Level -energy auto
//	gem5sim -energy-check mymodel.json -cpu O3CPU -mem classic
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"gem5art/internal/energy"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/sim/mem"
	"gem5art/internal/version"
	"gem5art/internal/workloads"
)

// traceInsts holds the -trace flag; when positive, boot-workload runs
// print an Exec-style trace of the first N instructions.
var traceInsts int64

func main() {
	var (
		workload   = flag.String("workload", "boot", "boot | parsec | gpu")
		kver       = flag.String("kernel", "5.4.49", "Linux kernel version (boot)")
		cpuModel   = flag.String("cpu", "TimingSimpleCPU", "CPU model")
		memSys     = flag.String("mem", "classic", "classic | ruby.MI_example | ruby.MESI_Two_Level")
		cores      = flag.Int("cores", 1, "CPU count")
		bootType   = flag.String("boot", "init", "init | systemd (boot)")
		benchmark  = flag.String("benchmark", "blackscholes", "benchmark name (parsec/gpu)")
		osName     = flag.String("os", "ubuntu-18.04", "disk image OS (parsec)")
		alloc      = flag.String("alloc", "simple", "GPU register allocator (gpu)")
		trace      = flag.Int64("trace", 0, "print the first N executed instructions (boot)")
		parallel   = flag.Int("parallel", 0, "run on the parallel engine with N workers (boot)")
		energySpec = flag.String("energy", "",
			"energy model: preset name, \"auto\", or JSON model file (boot)")
		energyCheck = flag.String("energy-check", "",
			"validate an energy model (preset, \"auto\", or file) against -cpu/-mem and exit")
		showVersion = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("gem5sim", version.String())
		return
	}
	traceInsts = *trace
	if *energyCheck != "" {
		if err := checkEnergy(*energyCheck, *cpuModel, *memSys); err != nil {
			fmt.Fprintln(os.Stderr, "gem5sim:", err)
			os.Exit(1)
		}
		return
	}
	if err := runCLI(*workload, *kver, *cpuModel, *memSys, *cores, *bootType,
		*benchmark, *osName, *alloc, *parallel, *energySpec); err != nil {
		fmt.Fprintln(os.Stderr, "gem5sim:", err)
		os.Exit(1)
	}
}

func runCLI(workload, kver, cpuModel, memSys string, cores int,
	bootType, benchmark, osName, alloc string, parallel int, energySpec string) error {
	switch workload {
	case "boot":
		if traceInsts > 0 {
			if parallel > 0 {
				return fmt.Errorf("-trace is only supported on the monolithic engine (drop -parallel)")
			}
			return traceBoot(cpuModel, cores)
		}
		var emodel *energy.Model
		if energySpec != "" {
			var err error
			if emodel, err = energy.Resolve(energySpec, cpuModel, memSys); err != nil {
				return err
			}
		}
		res := kernel.BootWith(kernel.Spec{
			Kernel: kernel.Version(kver),
			CPU:    cpu.Model(cpuModel),
			Mem:    memSys,
			Cores:  cores,
			Boot:   kernel.BootType(bootType),
		}, 0, kernel.BootOptions{Workers: parallel, Energy: emodel})
		if parallel > 0 {
			fmt.Printf("engine:      parallel (%d workers)\n", parallel)
			fmt.Printf("windows:     %d (%d inline, %d pool), %d messages\n", res.Sched.Windows,
				res.Sched.InlineWindows, res.Sched.PoolWindows, res.Sched.Messages)
		}
		fmt.Printf("outcome:     %s\n", res.Outcome)
		fmt.Printf("sim seconds: %.6f\n", res.SimTicks.Seconds())
		fmt.Printf("insts:       %d\n", res.Insts)
		if emodel != nil {
			printEnergy(emodel, res.Stats)
		}
		fmt.Printf("console:\n%s\n", res.Console)
		return nil
	case "parsec":
		app, err := workloads.FindParsec(benchmark)
		if err != nil {
			return err
		}
		var img workloads.OSImage
		found := false
		for _, o := range workloads.OSImages {
			if o.Name == osName {
				img, found = o, true
			}
		}
		if !found {
			return fmt.Errorf("unknown OS %q", osName)
		}
		m, err := workloads.ExecParsec(app, img, cores)
		if err != nil {
			return err
		}
		fmt.Printf("benchmark:   %s (%s, %d cores)\n", m.App, m.OS, m.Cores)
		fmt.Printf("sim seconds: %.6f\n", m.SimSeconds)
		fmt.Printf("insts:       %d\n", m.Insts)
		fmt.Printf("ipc:         %.3f\n", m.IPC)
		return nil
	case "gpu":
		w, err := workloads.FindGPUWorkload(benchmark)
		if err != nil {
			return err
		}
		res, err := gpu.Run(gpu.Config{}, w.Kernel, gpu.Allocator(alloc))
		if err != nil {
			return err
		}
		fmt.Printf("kernel:        %s (%s)\n", res.Kernel, res.Allocator)
		fmt.Printf("shader ticks:  %d\n", res.Cycles)
		fmt.Printf("ops:           %d\n", res.Ops)
		fmt.Printf("avg occupancy: %.2f waves/CU\n", res.AvgOccupancy)
		return nil
	}
	return fmt.Errorf("unknown workload %q", workload)
}

// printEnergy renders the energy block of a finished boot: one line per
// component plus the totals the analysis layer consumes.
func printEnergy(m *energy.Model, stats map[string]float64) {
	fmt.Printf("energy model: %s\n", m.Name)
	for _, c := range m.Components {
		fmt.Printf("  %-12s %.6e J (%.6e J dynamic, %.6e J static)\n", c.Name,
			stats["energy."+c.Name+".joules"],
			stats["energy."+c.Name+".dynamic_joules"],
			stats["energy."+c.Name+".static_joules"])
	}
	fmt.Printf("total energy: %.6e J\n", stats["energy.total_joules"])
	fmt.Printf("avg power:    %.6e W\n", stats["energy.avg_watts"])
	fmt.Printf("edp:          %.6e J*s\n", stats["energy.edp"])
}

// checkEnergy is the -energy-check dry run: resolve and validate the
// model against the -cpu/-mem configuration, then report each
// component's counters and which ones that configuration would not
// provide — without running a simulation.
func checkEnergy(spec, cpuModel, memSys string) error {
	m, err := energy.Resolve(spec, cpuModel, memSys)
	if err != nil {
		return err
	}
	switch memSys {
	case "classic", "ruby.MI_example", "ruby.MESI_Two_Level":
	default:
		return fmt.Errorf("unknown memory system %q", memSys)
	}
	// Build the target configuration's stat groups (no simulation, just
	// registration) and attach to see what resolves.
	system := cpu.NewParallelSystem(cpu.Config{Model: cpu.Model(cpuModel), Cores: 1},
		memSys, mem.ClassicConfig{}, 1)
	unmatched := energy.Attach(system.Stats(), m, energy.AttachOptions{})
	missing := map[string]bool{}
	for _, u := range unmatched {
		missing[u] = true
	}
	fmt.Printf("model %s: valid (%d components, salt %s)\n", m.Name, len(m.Components), m.Salt())
	for _, c := range m.Components {
		fmt.Printf("  %s: static %.3f W + %.3f W/GHz\n", c.Name, c.StaticW, c.StaticWPerGHz)
		counters := make([]string, 0, len(c.Dynamic))
		for n := range c.Dynamic {
			counters = append(counters, n)
		}
		sort.Strings(counters)
		for _, n := range counters {
			note := ""
			if missing[c.Name+":"+n] {
				note = "  (not provided by " + cpuModel + "/" + memSys + "; contributes 0)"
			}
			fmt.Printf("    %-40s %10.1f pJ/event%s\n", n, c.Dynamic[n], note)
		}
	}
	if len(unmatched) == 0 {
		fmt.Println("all counters resolve against this configuration")
	} else {
		fmt.Printf("%d counter(s) unmatched: %s\n", len(unmatched), strings.Join(unmatched, ", "))
	}
	return nil
}

// traceBoot runs the boot-exit workload with instruction tracing — the
// analogue of gem5's --debug-flags=Exec.
func traceBoot(cpuModel string, cores int) error {
	m := mem.NewClassic(cores, mem.ClassicConfig{})
	system := cpu.NewSystem(cpu.Config{Model: cpu.Model(cpuModel), Cores: cores}, m)
	system.SetTrace(func(core int, tick sim.Tick, pc int64, in isa.Inst) {
		fmt.Printf("%12d: system.cpu%d T0 : 0x%04x : %s\n", tick, core, pc, in)
	}, traceInsts)
	for c := 0; c < cores; c++ {
		system.LoadProgram(c, workloads.BootExitProgram())
	}
	res := system.Run(0)
	fmt.Printf("... %d instructions total\n", res.Insts)
	return nil
}
