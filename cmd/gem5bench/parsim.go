package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// The parsim suite measures the conservative-parallel simulation kernel
// on the two kinds of traffic its cost gate separates, 8 cores each:
//
//   - fine: O3 cores on the Ruby MESI_Two_Level hierarchy, the kernel's
//     stated target. Windows hold a few instructions, the gate keeps them
//     on the calling goroutine, and the point of the measurement is that
//     asking for workers costs nothing.
//   - coarse: KVM cores running one atomic-free program in lockstep, so
//     every window holds eight 4096-instruction batches. The gate hands
//     these to the worker pool, so this is the configuration that puts
//     components on other goroutines.
//
// It checks two things on both, on every host:
//
//   - Determinism: every worker count must produce an identical Result
//     and an identical stats dump (1/2/4/8 workers on coarse, where the
//     count changes what executes where). This is the contract that makes
//     the parallel engine usable for reproducible experiments at all.
//   - No parallel tax: N = min(host CPUs, cores) workers must not be
//     slower than 1 worker — on fine because the gate stays shut, on
//     coarse because the pool pays — so the rule holds on a 1-CPU runner
//     and a 64-CPU server alike, unlike a fixed speedup target, which
//     small hosts can only skip. The two sides are timed in interleaved
//     repetitions (1, N, 1, N, …) and compared min against min, so host
//     drift hits both; the N-worker run may be up to 10% slower before
//     the gate fails, which is this measurement's noise floor.
//
// On a host with more than one CPU it also requires that coarse windows
// did reach the pool; otherwise the coarse ratio would be timing the
// inline path twice.

// parsimConfig is one of the suite's two systems.
type parsimConfig struct {
	Name    string
	Model   cpu.Model
	MemSys  string
	Iters   int64
	Program func(core int, iters int64) *isa.Program
	Workers []int // report order; always starts with 1
}

// parsimRun is one worker count's measurement.
type parsimRun struct {
	Workers     int    `json:"workers"`
	WallNs      int64  `json:"wall_ns"` // min over reps
	SimTicks    uint64 `json:"sim_ticks"`
	Insts       uint64 `json:"insts"`
	Windows     uint64 `json:"windows"`
	PoolWindows uint64 `json:"pool_windows"` // last rep; placement varies run to run
	Messages    uint64 `json:"messages"`
}

// parsimConfigResult is one configuration's part of the report.
type parsimConfigResult struct {
	Name          string      `json:"name"`
	CPUModel      string      `json:"cpu_model"`
	MemSys        string      `json:"mem_sys"`
	Iterations    int64       `json:"iterations_per_core"`
	Runs          []parsimRun `json:"runs"`
	Deterministic bool        `json:"deterministic"`
	GateRatio     float64     `json:"wall_1w_over_gate_workers"`
}

// parsimResult is the parsim benchmark report.
type parsimResult struct {
	Cores         int                  `json:"cores"`
	HostCPUs      int                  `json:"host_cpus"`
	Reps          int                  `json:"reps_per_point"`
	GateWorkers   int                  `json:"gate_workers"` // min(host CPUs, cores)
	RequiredRatio float64              `json:"required_ratio"`
	Configs       []parsimConfigResult `json:"configs"`
	Pass          bool                 `json:"pass"`
}

// parsimWorkload is the fine configuration's per-core instruction stream:
// memory-heavy with cross-core atomics, so the run exercises the port
// protocol rather than pure core-local arithmetic.
func parsimWorkload(core int, iters int64) *isa.Program {
	return isa.Generate(isa.GenSpec{
		Name:           fmt.Sprintf("parsim-core%d", core),
		Seed:           1009 + int64(core)*53,
		Iterations:     iters,
		BodyOps:        48,
		Mix:            isa.Mix{Load: 0.3, Store: 0.15, Branch: 0.1, MulDiv: 0.03, Atomic: 0.02},
		FootprintWords: 1 << 14,
		StrideWords:    7,
		SharedWords:    32,
	})
}

// parsimLockstep is the coarse configuration's program, the same on every
// core and free of atomics: nothing ever pulls the KVM cores' batches
// apart, so each window holds one batch per core.
func parsimLockstep(_ int, iters int64) *isa.Program {
	return isa.Generate(isa.GenSpec{
		Name:           "parsim-lockstep",
		Seed:           1009,
		Iterations:     iters,
		BodyOps:        48,
		Mix:            isa.Mix{Load: 0.2, Store: 0.1, Branch: 0.1, MulDiv: 0.05},
		FootprintWords: 1 << 10,
		StrideWords:    3,
	})
}

const parsimCores = 8

// parsimPoint builds a fresh system and times one full run.
func parsimPoint(cfg parsimConfig, workers int) (time.Duration, cpu.Result, string, sim.Counters) {
	ps := cpu.NewParallelSystem(cpu.Config{Model: cfg.Model, Cores: parsimCores},
		cfg.MemSys, mem.ClassicConfig{}, workers)
	defer ps.Close()
	for c := 0; c < parsimCores; c++ {
		ps.LoadProgram(c, cfg.Program(c, cfg.Iters))
	}
	start := time.Now()
	res := ps.Run(0)
	wall := time.Since(start)
	return wall, res, ps.Stats().Dump(), ps.Scheduler().Counters()
}

// parsimMeasure runs one configuration at each of its worker counts,
// reps times over, and reports whether pool windows were seen at
// gateWorkers.
func parsimMeasure(cfg parsimConfig, reps, gateWorkers int) (parsimConfigResult, bool) {
	r := parsimConfigResult{
		Name:          cfg.Name,
		CPUModel:      string(cfg.Model),
		MemSys:        cfg.MemSys,
		Iterations:    cfg.Iters,
		Runs:          make([]parsimRun, len(cfg.Workers)),
		Deterministic: true,
	}
	var baseRes cpu.Result
	var baseDump string
	// Interleaved: every repetition visits every worker count once, so a
	// slow stretch of the host lands on all of them.
	for rep := 0; rep < reps; rep++ {
		for i, w := range cfg.Workers {
			wall, res, dump, count := parsimPoint(cfg, w)
			if rep == 0 && i == 0 {
				baseRes, baseDump = res, dump
			} else if res.SimTicks != baseRes.SimTicks || res.Insts != baseRes.Insts || dump != baseDump {
				r.Deterministic = false
			}
			run := &r.Runs[i]
			if rep == 0 || wall.Nanoseconds() < run.WallNs {
				run.WallNs = wall.Nanoseconds()
			}
			run.Workers, run.SimTicks, run.Insts = w, uint64(res.SimTicks), res.Insts
			run.Windows, run.PoolWindows, run.Messages = count.Windows, count.PoolWindows, count.Messages
		}
	}
	pooled := false
	fmt.Printf("%s: %s on %s, %d iterations/core\n", cfg.Name, cfg.Model, cfg.MemSys, cfg.Iters)
	for _, run := range r.Runs {
		ratio := float64(r.Runs[0].WallNs) / float64(run.WallNs)
		fmt.Printf("  workers=%d: %10v  sim_ticks=%d insts=%d windows=%d (%d pool) 1w/Nw=%.2fx\n",
			run.Workers, time.Duration(run.WallNs), run.SimTicks, run.Insts, run.Windows, run.PoolWindows, ratio)
		if run.Workers == gateWorkers {
			r.GateRatio = ratio
			pooled = run.PoolWindows > 0
		}
	}
	return r, pooled
}

func runParsim(out string, iters int64, reps int, required float64) bool {
	hostCPUs := runtime.NumCPU()
	gateWorkers := min(hostCPUs, parsimCores)
	fmt.Printf("parsim: %d cores, %d host CPUs, gate at %d workers\n", parsimCores, hostCPUs, gateWorkers)

	sweep := []int{1, 2, 4, 8}
	if !slices.Contains(sweep, gateWorkers) {
		sweep = append(sweep, gateWorkers)
		slices.Sort(sweep)
	}
	configs := []parsimConfig{
		{Name: "fine", Model: cpu.O3, MemSys: "ruby.MESI_Two_Level", Iters: iters,
			Program: parsimWorkload, Workers: slices.Compact([]int{1, gateWorkers})},
		// A KVM core retires instructions some 50x faster than an O3 one
		// models them; more iterations keep the run long enough to time.
		{Name: "coarse", Model: cpu.KVM, MemSys: "classic", Iters: 20 * iters,
			Program: parsimLockstep, Workers: sweep},
	}

	r := parsimResult{
		Cores:         parsimCores,
		HostCPUs:      hostCPUs,
		Reps:          reps,
		GateWorkers:   gateWorkers,
		RequiredRatio: required,
		Pass:          true,
	}
	for _, cfg := range configs {
		cr, pooled := parsimMeasure(cfg, reps, gateWorkers)
		r.Configs = append(r.Configs, cr)
		fmt.Printf("  deterministic across workers: %s\n", verdict(cr.Deterministic))
		fmt.Printf("  %d workers vs 1 worker: %.2fx (required >= %.2fx) -> %s\n",
			gateWorkers, cr.GateRatio, required, verdict(cr.GateRatio >= required))
		r.Pass = r.Pass && cr.Deterministic && cr.GateRatio >= required
		if cfg.Name == "coarse" && gateWorkers > 1 {
			fmt.Printf("  windows reached the pool at %d workers: %s\n", gateWorkers, verdict(pooled))
			r.Pass = r.Pass && pooled
		}
	}
	writeReport(out, r)
	fmt.Printf("report written to %s\n", out)
	return r.Pass
}
