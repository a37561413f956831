// Package kernel models full-system Linux boot on the simulated hardware:
// the five LTS kernel versions the paper's boot sweep crosses, the two
// boot types (kernel-only "init" and "systemd" to runlevel 5), and the
// gem5 v20.1.0.4 compatibility matrix that Figure 8 maps out — which
// CPU/memory/core-count combinations boot, which are unsupported by the
// simulator, and which expose simulator bugs (kernel panics, segmentation
// faults, the MI_example "possible deadlock detected" error, and runs
// that never finish).
//
// Boot is executed as a real simulation: generated kernel-init
// instruction streams run on the CPU and memory models, so successful
// boots report meaningful timing. The *bug* model is a deterministic
// table derived from the paper's reported counts, because the bugs live
// in gem5 v20.1, not in the hardware being modeled; see DESIGN.md.
package kernel

import (
	"fmt"

	"gem5art/internal/energy"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// Version is a Linux kernel version string.
type Version string

// BootKernels are the five LTS kernels of the Figure 8 sweep.
var BootKernels = []Version{
	"4.4.186", "4.9.186", "4.14.134", "4.19.83", "5.4.49",
}

// Ubuntu-image kernels used by the PARSEC study (Table II).
const (
	KernelUbuntu1804 Version = "4.15.18"
	KernelUbuntu2004 Version = "5.4.51"
)

// BootType selects how far the system boots.
type BootType string

// Boot types from Figure 8: "init" boots only the kernel and exits;
// "systemd" boots to runlevel 5 (multi-user) in the Ubuntu userland.
const (
	BootInit    BootType = "init"
	BootSystemd BootType = "systemd"
)

// BootTypes lists both in sweep order.
var BootTypes = []BootType{BootInit, BootSystemd}

// CoreCounts is the sweep's CPU-count axis.
var CoreCounts = []int{1, 2, 4, 8}

// MemSystems is the sweep's memory-system axis.
var MemSystems = []string{"classic", "ruby.MI_example", "ruby.MESI_Two_Level"}

// Outcome classifies one boot attempt, matching the categories in the
// paper's §VI-B discussion.
type Outcome string

// Outcomes.
const (
	Success     Outcome = "success"
	Unsupported Outcome = "unsupported"  // configuration gem5 v20.1 cannot simulate
	KernelPanic Outcome = "kernel-panic" // guest kernel panicked
	SimCrash    Outcome = "sim-crash"    // gem5 segmentation fault
	Deadlock    Outcome = "deadlock"     // Ruby "possible deadlock detected"
	Timeout     Outcome = "timeout"      // no result within the job timeout
)

// Spec is one cell of the boot cross product.
type Spec struct {
	Kernel Version
	CPU    cpu.Model
	Mem    string // one of MemSystems
	Cores  int
	Boot   BootType
}

// String renders the cell compactly for logs and the database.
func (s Spec) String() string {
	return fmt.Sprintf("kernel=%s cpu=%s mem=%s cores=%d boot=%s",
		s.Kernel, s.CPU, s.Mem, s.Cores, s.Boot)
}

// Result is the outcome of one boot simulation.
type Result struct {
	Spec     Spec
	Outcome  Outcome
	SimTicks sim.Tick
	Insts    uint64
	Console  string
	// Stats holds the full stat dump of the booted system — including
	// the energy.* statistics — when BootOptions.Energy is set; nil
	// otherwise (plain boots keep the lean result the sweep machinery
	// always had).
	Stats map[string]float64
}

// Expected returns the outcome the gem5 v20.1 compatibility model
// predicts for a cell. It is exported so tests and the resource status
// page can audit the matrix without running simulations.
func Expected(s Spec) Outcome {
	ruby := s.Mem != "classic"
	switch s.CPU {
	case cpu.KVM:
		return Success // "kvmCPU works in all cases"
	case cpu.Atomic:
		if ruby {
			return Unsupported // "AtomicSimpleCPU cannot function on Ruby"
		}
		return Success
	case cpu.Timing:
		if !ruby && s.Cores > 1 {
			return Unsupported // ">1 core on Classic" limitation
		}
		return Success
	case cpu.O3:
		if !ruby {
			if s.Cores > 1 {
				return Unsupported
			}
			return Success // classic single-core boots
		}
		return o3RubyOutcome(s)
	}
	return Unsupported
}

// o3RubyOutcome encodes Figure 8's O3 failure distribution: 27 kernel
// panics, 11 segfaults, 4 MI_example deadlocks, 16 timeouts, the rest
// booting successfully.
func o3RubyOutcome(s Spec) Outcome {
	mi := s.Mem == "ruby.MI_example"
	sysd := s.Boot == BootSystemd
	switch s.Kernel {
	case "4.4.186":
		if mi && s.Cores == 8 && sysd {
			return Deadlock
		}
		if s.Cores > 1 || sysd {
			return KernelPanic
		}
		return Success
	case "4.9.186":
		if mi && s.Cores == 8 && sysd {
			return Deadlock
		}
		if s.Cores > 1 {
			return KernelPanic
		}
		if mi && sysd {
			return KernelPanic
		}
		return Success
	case "4.14.134":
		if mi {
			switch s.Cores {
			case 1:
				return Success
			case 2:
				return Timeout
			case 4:
				return SimCrash
			default:
				if sysd {
					return Deadlock
				}
				return Timeout
			}
		}
		switch s.Cores {
		case 1:
			return Success
		case 2:
			return KernelPanic
		case 4:
			return Timeout
		default:
			if sysd {
				return Timeout
			}
			return SimCrash
		}
	case "4.19.83":
		if mi {
			switch s.Cores {
			case 1:
				return Success
			case 8:
				if sysd {
					return Deadlock
				}
				return Timeout
			default:
				return Timeout
			}
		}
		switch s.Cores {
		case 1:
			return Success
		case 2:
			return Timeout
		default:
			return SimCrash
		}
	case "5.4.49":
		if mi {
			switch s.Cores {
			case 1:
				return Success
			case 2:
				return Timeout
			default:
				return SimCrash
			}
		}
		if s.Cores == 8 && !sysd {
			return Timeout
		}
		return Success
	}
	// Unknown kernels (e.g. the Ubuntu-image ones) boot like 5.4.49.
	return o3RubyOutcome(Spec{Kernel: "5.4.49", CPU: s.CPU, Mem: s.Mem,
		Cores: s.Cores, Boot: s.Boot})
}

// kernelFactor scales boot work per kernel: newer kernels execute
// somewhat more code during init.
var kernelFactor = map[Version]float64{
	"4.4.186": 0.85, "4.9.186": 0.90, "4.14.134": 0.95,
	"4.19.83": 1.0, "5.4.49": 1.05,
	KernelUbuntu1804: 0.97, KernelUbuntu2004: 1.05,
}

// bootWork returns the instruction-stream spec for the boot workload on
// one core. Boot is mostly serial: core 0 runs the kernel init path;
// secondary cores spin up with a short idle-and-sync loop.
func bootWork(s Spec, core int) isa.GenSpec {
	kfactor := kernelFactor[s.Kernel]
	if kfactor == 0 {
		kfactor = 1.0
	}
	iters := int64(300 * kfactor)
	if s.Boot == BootSystemd {
		iters = int64(1100 * kfactor) // userland startup triples the work
	}
	if core != 0 {
		iters = iters / 8 // secondary cores mostly wait
	}
	return isa.GenSpec{
		Name:       fmt.Sprintf("boot-%s-%s-core%d", s.Kernel, s.Boot, core),
		Seed:       int64(len(s.Kernel))*1000 + int64(core),
		Iterations: iters,
		BodyOps:    48,
		Mix:        isa.Mix{Load: 0.25, Store: 0.12, Branch: 0.15, MulDiv: 0.02, Atomic: 0.02},
		// Kernel init touches a lot of memory once: big footprint.
		FootprintWords: 1 << 15,
		StrideWords:    7,
		SharedWords:    16,
	}
}

// buildMem constructs the memory system named by the spec.
func buildMem(name string, cores int) mem.System {
	switch name {
	case "classic":
		return mem.NewClassic(cores, mem.ClassicConfig{})
	case "ruby.MI_example":
		return mem.NewRuby(cores, mem.MIExample, mem.ClassicConfig{})
	case "ruby.MESI_Two_Level":
		return mem.NewRuby(cores, mem.MESITwoLevel, mem.ClassicConfig{})
	default:
		panic("kernel: unknown memory system " + name)
	}
}

// BootOptions configures a boot attempt.
type BootOptions struct {
	// Deprecated: Workers is ignored. Every boot runs on the one
	// simulation engine; the field stays declared because the benchmark
	// module (benchmark/sim.go) still sets it.
	Workers int
	// Energy, when non-nil, attaches the energy model to the booted
	// system's stat group before the simulation runs and returns the
	// full stat values (energy.* included) in Result.Stats.
	Energy *energy.Model
}

// newBootSystem builds the system for s with opts.Energy attached and
// returns it with the energy counters it does not provide. The caller
// releases the system after the last read of its stats.
func newBootSystem(s Spec, opts BootOptions) (*cpu.System, []string) {
	memory := buildMem(s.Mem, s.Cores)
	system := cpu.NewSystem(cpu.Config{Model: s.CPU, Cores: s.Cores}, memory)
	var unmatched []string
	if opts.Energy != nil {
		// Memory counters live in their own group; resolve them as an
		// extra source.
		unmatched = energy.Attach(system.Stats(), opts.Energy, memory.Stats())
	}
	return system, unmatched
}

// UnmatchedEnergy builds, without simulating, the system BootWith(s, _,
// opts) would run and returns the opts.Energy counters it does not
// provide; each contributes 0 J to that run.
func UnmatchedEnergy(s Spec, opts BootOptions) []string {
	system, unmatched := newBootSystem(s, opts)
	system.Release()
	return unmatched
}

// Boot simulates one boot attempt with the given simulated-time budget
// (0 means the default of 10 ms simulated, which generously covers every
// successful boot at this workload scale).
func Boot(s Spec, budget sim.Tick) Result {
	return BootWith(s, budget, BootOptions{})
}

// BootWith is Boot with options.
func BootWith(s Spec, budget sim.Tick, opts BootOptions) (res Result) {
	if budget == 0 {
		budget = 10 * sim.TicksPerSecond / 1000
	}
	expected := Expected(s)
	res = Result{Spec: s, Outcome: expected}
	if expected == Unsupported {
		res.Console = fmt.Sprintf("fatal: %s is not supported with %s", s.CPU, s.Mem)
		return res
	}

	system, _ := newBootSystem(s, opts)
	defer system.Release()
	for core := 0; core < s.Cores; core++ {
		system.LoadProgram(core, isa.Generate(bootWork(s, core)))
	}
	defer func() {
		if opts.Energy != nil {
			res.Stats = system.Stats().Values()
		}
	}()

	switch expected {
	case Success:
		r := system.Run(budget)
		res.SimTicks = r.SimTicks
		res.Insts = r.Insts
		if !r.Finished {
			// The hardware model itself could not finish in budget; that
			// is a genuine timeout regardless of the bug table.
			res.Outcome = Timeout
			res.Console = "job killed: timeout"
			return res
		}
		res.Console = successConsole(s)
	case KernelPanic:
		// The kernel gets partway through init then panics.
		r := system.Run(budget / 4)
		res.SimTicks = r.SimTicks
		res.Insts = r.Insts
		res.Console = "Kernel panic - not syncing: Attempted to kill init!"
	case SimCrash:
		r := system.Run(budget / 16)
		res.SimTicks = r.SimTicks
		res.Insts = r.Insts
		res.Console = "gem5 has encountered a segmentation fault!"
	case Deadlock:
		r := system.Run(budget / 8)
		res.SimTicks = r.SimTicks
		res.Insts = r.Insts
		res.Console = "panic: Possible Deadlock detected. Aborting!"
	case Timeout:
		r := system.Run(budget)
		res.SimTicks = r.SimTicks
		res.Insts = r.Insts
		res.Console = "job killed: timeout"
	}
	return res
}

func successConsole(s Spec) string {
	if s.Boot == BootSystemd {
		return fmt.Sprintf("Linux version %s\n...\nUbuntu 18.04 LTS ubuntu-server tty1\nreached runlevel 5\nm5 exit", s.Kernel)
	}
	return fmt.Sprintf("Linux version %s\n...\nBoot successful\nm5 exit", s.Kernel)
}

// Sweep enumerates the full 480-cell cross product in deterministic
// order: kernels × CPU models × memory systems × core counts × boot types.
func Sweep() []Spec {
	var out []Spec
	for _, k := range BootKernels {
		for _, c := range cpu.AllModels {
			for _, m := range MemSystems {
				for _, n := range CoreCounts {
					for _, b := range BootTypes {
						out = append(out, Spec{Kernel: k, CPU: c, Mem: m, Cores: n, Boot: b})
					}
				}
			}
		}
	}
	return out
}
