package run

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"gem5art/internal/diskimage"
	"gem5art/internal/energy"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/workloads"
)

// A Handler executes one run script against the simulator and returns
// its results. Handlers are keyed by run-script path, mirroring how a
// gem5 run script interprets its own command-line parameters. New
// workloads register their script here.
type Handler func(r *Run) (*Results, error)

var handlers = map[string]Handler{
	"configs/run_parsec.py":   runParsec,
	"configs/run_exit.py":     runBootExit,
	"configs/run_gpu.py":      runGPU,
	"configs/run_npb.py":      runNPB,
	"configs/run_gapbs.py":    runGAPBS,
	"configs/run_se.py":       runSE,
	"configs/run_hackback.py": runHackBack,
}

func handler(script string) (Handler, bool) {
	h, ok := handlers[script]
	return h, ok
}

// loadImage fetches and parses the run's disk image artifact.
func loadImage(r *Run) (*diskimage.Image, error) {
	raw, err := r.reg.Content(r.Spec.DiskImageArtifact)
	if err != nil {
		return nil, err
	}
	return diskimage.Parse(raw)
}

func osFor(img *diskimage.Image) (workloads.OSImage, error) {
	for _, os := range workloads.OSImages {
		if os.Name == img.OS {
			return os, nil
		}
	}
	return workloads.OSImage{}, fmt.Errorf("run: image %s has unknown OS %q", img.Name, img.OS)
}

func intParam(r *Run, key string, def int) (int, error) {
	v := r.Param(key, "")
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("run: bad %s=%q", key, v)
	}
	return n, nil
}

// runParsec implements the PARSEC resource's run script: boot the image,
// run one application with the requested CPU count, report timing.
func runParsec(r *Run) (*Results, error) {
	img, err := loadImage(r)
	if err != nil {
		return nil, err
	}
	osImg, err := osFor(img)
	if err != nil {
		return nil, err
	}
	benchmark := r.Param("benchmark", "")
	if benchmark == "" {
		return nil, fmt.Errorf("run: %s: missing benchmark param", r.Spec.Name)
	}
	raw, err := img.ReadFile("/benchmarks/parsec/" + benchmark + ".desc")
	if err != nil {
		return nil, err
	}
	var app workloads.ParsecApp
	if err := json.Unmarshal(raw, &app); err != nil {
		return nil, fmt.Errorf("run: %s: corrupt descriptor: %w", benchmark, err)
	}
	cores, err := intParam(r, "num_cpus", 1)
	if err != nil {
		return nil, err
	}
	if model := r.Param("cpu", "TimingSimpleCPU"); model != string(cpu.Timing) {
		return nil, fmt.Errorf("run: %s: the PARSEC script supports TimingSimpleCPU, got %s",
			r.Spec.Name, model)
	}
	m, err := workloads.ExecParsec(app, osImg, cores)
	if err != nil {
		return nil, err
	}
	res := &Results{
		Outcome:    "success",
		SimSeconds: m.SimSeconds,
		Insts:      m.Insts,
		Stats: map[string]float64{
			"sim_seconds": m.SimSeconds,
			"sim_insts":   float64(m.Insts),
			"ipc":         m.IPC,
		},
		Console: fmt.Sprintf("PARSEC %s (%s input) on %s: ROI complete\nm5 exit",
			benchmark, r.Param("size", "simmedium"), osImg.Name),
		ConfigINI: renderConfig(string(cpu.Timing), cores, "classic", "parsec/"+benchmark),
	}
	// PARSEC metrics only survive as a flat map; evaluate the model over
	// the counters it carries (the rest contribute zero).
	emodel, err := r.energyModel()
	if err != nil {
		return nil, err
	}
	if err := evaluateEnergy(res, emodel, 0); err != nil {
		return nil, err
	}
	return res, nil
}

// runBootExit implements the boot-exit resource's run script: Figure 8's
// unit of work.
func runBootExit(r *Run) (*Results, error) {
	cores, err := intParam(r, "num_cpus", 1)
	if err != nil {
		return nil, err
	}
	emodel, err := r.energyModel()
	if err != nil {
		return nil, err
	}
	return bootResults(kernel.Spec{
		Kernel: kernel.Version(r.Param("kernel", string(r.kernelVersion()))),
		CPU:    cpu.Model(r.Param("cpu", string(cpu.KVM))),
		Mem:    r.Param("mem_sys", "classic"),
		Cores:  cores,
		Boot:   kernel.BootType(r.Param("boot_type", string(kernel.BootInit))),
	}, emodel), nil
}

// bootResults boots one Figure 8 cell within the kernel's default
// budget and builds its results: the one boot cell behind runBootExit
// and ExecuteBootJob.
func bootResults(spec kernel.Spec, emodel *energy.Model) *Results {
	res := kernel.BootWith(spec, 0, kernel.BootOptions{Energy: emodel})
	stats := map[string]float64{
		"sim_seconds": res.SimTicks.Seconds(),
		"sim_insts":   float64(res.Insts),
	}
	// An energy-enabled boot returns the booted system's full stat dump
	// (energy.* included); archive all of it.
	for k, v := range res.Stats {
		stats[k] = v
	}
	return &Results{
		Outcome:    string(res.Outcome),
		SimSeconds: res.SimTicks.Seconds(),
		Insts:      res.Insts,
		Stats:      stats,
		Console:    res.Console,
		ConfigINI:  renderConfig(string(spec.CPU), spec.Cores, spec.Mem, "boot-exit/"+string(spec.Boot)),
	}
}

// kernelVersion extracts the kernel version from the linux binary
// artifact name (e.g. "vmlinux-5.4.49").
func (r *Run) kernelVersion() kernel.Version {
	name := r.Spec.LinuxBinaryArtifact.Name
	const prefix = "vmlinux-"
	if len(name) > len(prefix) && name[:len(prefix)] == prefix {
		return kernel.Version(name[len(prefix):])
	}
	return kernel.Version(name)
}

// runGPU implements the GCN3 apu script: one Table IV application under
// one register allocator. It requires a gem5 binary built with the
// GCN3_X86 static configuration, as use case 3 documents.
func runGPU(r *Run) (*Results, error) {
	if !strings.Contains(r.Spec.Gem5Binary, "GCN3_") {
		return nil, fmt.Errorf("run: %s: GPU runs require a GCN3_X86 gem5 build, got %s",
			r.Spec.Name, r.Spec.Gem5Binary)
	}
	emodel, err := r.energyModel()
	if err != nil {
		return nil, err
	}
	return gpuResults(r.Param("app", ""), gpu.Allocator(r.Param("reg_alloc", string(gpu.Simple))), emodel)
}

// gpuResults runs one Table IV application under one register allocator
// and builds its results: the one GPU cell behind runGPU and
// ExecuteGPUJob.
func gpuResults(app string, alloc gpu.Allocator, emodel *energy.Model) (*Results, error) {
	w, err := workloads.FindGPUWorkload(app)
	if err != nil {
		return nil, err
	}
	res, err := gpu.Run(gpu.Config{}, w.Kernel, alloc)
	if err != nil {
		return nil, err
	}
	out := &Results{
		Outcome:    "success",
		SimSeconds: float64(res.Cycles) / 1e9, // 1 GHz shader clock
		Insts:      res.Ops,
		Stats: map[string]float64{
			"shader_ticks":  float64(res.Cycles),
			"gpu_ops":       float64(res.Ops),
			"mem_accesses":  float64(res.MemAccesses),
			"atomic_ops":    float64(res.AtomicOps),
			"avg_occupancy": res.AvgOccupancy,
			"dep_stalls":    float64(res.DepStalls),
		},
		Console: fmt.Sprintf("GPU kernel %s with %s register allocator: %d shader ticks",
			app, alloc, res.Cycles),
	}
	// The GPU model has no stat group; evaluate the model over the
	// reported counters at the 1 GHz shader clock.
	if err := evaluateEnergy(out, emodel, 1_000_000_000); err != nil {
		return nil, err
	}
	return out, nil
}

// runSuiteProgram runs a single-program suite benchmark from the disk
// image in full-system mode on the requested CPU model.
func runSuiteProgram(r *Run, suite string) (*Results, error) {
	img, err := loadImage(r)
	if err != nil {
		return nil, err
	}
	bench := r.Param("benchmark", "")
	bin, err := img.ReadFile("/benchmarks/" + suite + "/" + bench)
	if err != nil {
		return nil, err
	}
	return execBinary(r, bin)
}

func runNPB(r *Run) (*Results, error)   { return runSuiteProgram(r, "npb") }
func runGAPBS(r *Run) (*Results, error) { return runSuiteProgram(r, "gapbs") }

// outcome names how a program run ended.
func outcome(res cpu.Result) string {
	if res.Finished {
		return "success"
	}
	return "timeout"
}

// execBinary decodes and runs one program on the configured system.
func execBinary(r *Run, bin []byte) (*Results, error) {
	if err := r.faultPoint("run.exec"); err != nil {
		return nil, err
	}
	prog, err := decodeProgram(bin)
	if err != nil {
		return nil, err
	}
	cores, err := intParam(r, "num_cpus", 1)
	if err != nil {
		return nil, err
	}
	model := cpu.Model(r.Param("cpu", string(cpu.Timing)))
	memKind := r.Param("mem_sys", "classic")
	emodel, err := r.energyModel()
	if err != nil {
		return nil, err
	}
	memSys, err := buildMemParam(memKind, cores)
	if err != nil {
		return nil, err
	}
	system := cpu.NewSystem(cpu.Config{Model: model, Cores: cores}, memSys)
	defer system.Release()
	if emodel != nil {
		// Monolithic memory counters live in their own group.
		energy.Attach(system.Stats(), emodel, memSys.Stats())
	}
	for i := 0; i < cores; i++ {
		system.LoadProgram(i, prog)
	}
	res := system.Run(sim.TicksPerSecond) // 1 s simulated budget
	return &Results{
		Outcome:    outcome(res),
		SimSeconds: res.SimTicks.Seconds(),
		Insts:      res.Insts,
		Stats:      system.Stats().Values(),
		Console:    res.Console,
		ConfigINI:  renderConfig(string(model), cores, memKind, prog.Name),
	}, nil
}
