package main

import (
	"fmt"
	"time"

	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/telemetry"
	"gem5art/internal/workloads"
)

// Telemetry series the sim layer figures are deltas of.
const (
	simEventsSeries = "gem5art_sim_events_total"
	simInstsSeries  = "gem5art_sim_instructions_total"
)

// supportedBoots is every cell of the Figure 8 cross product that the
// compatibility model lets simulate (340 of 480).
func supportedBoots() []kernel.Spec {
	var out []kernel.Spec
	for _, s := range kernel.Sweep() {
		if kernel.Expected(s) != kernel.Unsupported {
			out = append(out, s)
		}
	}
	return out
}

type parsecCell struct {
	app   workloads.ParsecApp
	os    workloads.OSImage
	cores int
}

func parsecCells() []parsecCell {
	var out []parsecCell
	for _, os := range workloads.OSImages {
		for _, app := range workloads.ParsecApps() {
			for _, n := range workloads.ParsecCoreCounts {
				out = append(out, parsecCell{app, os, n})
			}
		}
	}
	return out
}

type gpuCell struct {
	w     workloads.GPUWorkload
	alloc gpu.Allocator
}

func gpuCells() []gpuCell {
	var out []gpuCell
	for _, w := range workloads.GPUWorkloads() {
		for _, a := range []gpu.Allocator{gpu.Simple, gpu.Dynamic} {
			out = append(out, gpuCell{w, a})
		}
	}
	return out
}

// simCounters are the sim layer's host-cost figures over a stretch of
// CPU-model simulation: host wall, heap allocations, and the exact
// event and instruction counts the simulator itself reports.
type simCounters struct {
	wall    time.Duration
	mallocs uint64
	events  float64
	insts   float64
}

// window runs fn, which returns the timed wall it spent simulating,
// and on a traced pass samples the counters around it. The malloc
// count needs a stop-the-world ReadMemStats, so windows wrap whole
// phases, not ops.
func (c *simCounters) window(p *pass, fn func() time.Duration) {
	if !p.traced() {
		fn()
		return
	}
	before := telemetry.Default.Snapshot()
	m0 := mallocs()
	c.wall += fn()
	c.mallocs += mallocs() - m0
	after := telemetry.Default.Snapshot()
	c.events += after[simEventsSeries] - before[simEventsSeries]
	c.insts += after[simInstsSeries] - before[simInstsSeries]
}

func (c *simCounters) report(p *pass) {
	if c.events > 0 {
		p.layer["sim.ns_per_event"] = float64(c.wall) / c.events
		p.layer["sim.allocs_per_event"] = float64(c.mallocs) / c.events
	}
	if c.insts > 0 {
		p.layer["sim.events_per_inst"] = c.events / c.insts
	}
}

// simCost is host wall time against instructions simulated, for one
// CPU model.
type simCost struct {
	wall  time.Duration
	insts uint64
}

func reportMIPS(p *pass, byModel map[cpu.Model]*simCost) {
	for model, m := range byModel {
		if m.wall > 0 {
			p.layer["sim.mips."+string(model)] = float64(m.insts) / m.wall.Seconds() / 1e6
		}
	}
}

// bootOp simulates one boot cell and checks it against the
// compatibility model. boot is kernel.Boot or a BootWith closure.
func bootOp(p *pass, s kernel.Spec, boot func(kernel.Spec) kernel.Result) (kernel.Result, time.Duration) {
	var res kernel.Result
	before := p.wall
	p.op(func(opRef) (int, uint64, error) {
		res = boot(s)
		if want := kernel.Expected(s); res.Outcome != want {
			return 0, 0, fmt.Errorf("boot %s: outcome %s, expected %s", s, res.Outcome, want)
		}
		return 1, res.Insts, nil
	})
	return res, p.wall - before
}

// simMono is the sim_mono workload: direct calls on one goroutine into
// the monolithic engine, so the sim layer does all the work.
type simMono struct {
	boots  []kernel.Spec
	parsec []parsecCell
	gpus   []gpuCell

	byModel map[cpu.Model]*simCost
	gpuWall time.Duration
	gpuOps  uint64
	cpuSim  simCounters
}

func setupSimMono(c *config, p *pass) (instance, error) {
	w := &simMono{
		boots:   permuted(c, "boot", supportedBoots()),
		parsec:  permuted(c, "parsec", parsecCells()),
		gpus:    permuted(c, "gpu", gpuCells()),
		byModel: map[cpu.Model]*simCost{},
	}
	for _, m := range cpu.AllModels {
		w.byModel[m] = &simCost{}
	}
	// Warm-up: every fourth cell of each family in sweep order (not the
	// seed's: set-up does the same work for every seed), so first-use
	// allocation and lazy tables are paid before timing.
	for i, s := range supportedBoots() {
		if i%4 == 0 {
			kernel.Boot(s, 0)
		}
	}
	for i, pc := range parsecCells() {
		if i%4 == 0 {
			if _, err := workloads.ExecParsec(pc.app, pc.os, pc.cores); err != nil {
				return nil, err
			}
		}
	}
	for i, g := range gpuCells() {
		if i%4 == 0 {
			if _, err := gpu.Run(gpu.Config{}, g.w.Kernel, g.alloc); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *simMono) round(p *pass) {
	// Boots and PARSEC run on the CPU models and the event queue; the
	// GPU model has its own loop and is accounted apart.
	cpuPhase := func() time.Duration {
		var wall time.Duration
		for _, s := range w.boots {
			res, d := bootOp(p, s, func(s kernel.Spec) kernel.Result { return kernel.Boot(s, 0) })
			p.stat(s.String(), string(res.Outcome), res.Insts, uint64(res.SimTicks))
			m := w.byModel[s.CPU]
			m.wall += d
			m.insts += res.Insts
			wall += d
		}
		for _, c := range w.parsec {
			before := p.wall
			p.op(func(opRef) (int, uint64, error) {
				m, err := workloads.ExecParsec(c.app, c.os, c.cores)
				if err != nil {
					return 0, 0, err
				}
				if m.Insts == 0 {
					return 0, 0, fmt.Errorf("parsec %s/%s/%d: no instructions", c.app.Name, c.os.Name, c.cores)
				}
				p.stat(fmt.Sprintf("parsec %s %s %dc", c.app.Name, c.os.Name, c.cores), "done",
					m.Insts, uint64(m.SimSeconds*float64(sim.TicksPerSecond)))
				return 1, m.Insts, nil
			})
			d := p.wall - before
			w.byModel[cpu.Timing].wall += d
			wall += d
		}
		return wall
	}
	w.cpuSim.window(p, cpuPhase)
	for _, c := range w.gpus {
		before := p.wall
		p.op(func(opRef) (int, uint64, error) {
			res, err := gpu.Run(gpu.Config{}, c.w.Kernel, c.alloc)
			if err != nil {
				return 0, 0, err
			}
			if res.Ops == 0 {
				return 0, 0, fmt.Errorf("gpu %s/%s: no ops", c.w.Kernel.Name, c.alloc)
			}
			p.stat(fmt.Sprintf("gpu %s %s", c.w.Kernel.Name, c.alloc), "done", res.Ops, res.Cycles)
			w.gpuOps += res.Ops
			return 1, res.Ops, nil
		})
		w.gpuWall += p.wall - before
	}
}

func (w *simMono) finish(p *pass) {
	reportMIPS(p, w.byModel)
	if w.gpuWall > 0 {
		p.layer["sim.gpu_mops"] = float64(w.gpuOps) / w.gpuWall.Seconds() / 1e6
	}
	w.cpuSim.report(p)
	probeEventQueue(p)
}

func (w *simMono) close() {}

// simPar is the sim_par workload: the multi-core TimingSimpleCPU and
// O3CPU boots on the component/port engine, at one worker and at
// nproc workers.
type simPar struct {
	cells   []kernel.Spec
	workers []int

	wallAt  [2]time.Duration // by index into workers
	byModel map[cpu.Model]*simCost
	parSim  simCounters
}

func parCells() []kernel.Spec {
	var out []kernel.Spec
	for _, s := range supportedBoots() {
		if s.Cores >= 2 && (s.CPU == cpu.Timing || s.CPU == cpu.O3) {
			out = append(out, s)
		}
	}
	return out
}

func setupSimPar(c *config, p *pass) (instance, error) {
	w := &simPar{
		cells:   permuted(c, "par", parCells()),
		workers: []int{1, c.nproc},
		byModel: map[cpu.Model]*simCost{cpu.Timing: {}, cpu.O3: {}},
	}
	// Warm-up: every fourth cell in sweep order at both worker counts.
	for i, s := range parCells() {
		if i%4 == 0 {
			for _, n := range w.workers {
				kernel.BootWith(s, 0, kernel.BootOptions{Workers: n})
			}
		}
	}
	return w, nil
}

func (w *simPar) round(p *pass) {
	first := make([]kernel.Result, len(w.cells))
	for wi, n := range w.workers {
		w.parSim.window(p, func() time.Duration {
			var wall time.Duration
			for i, s := range w.cells {
				res, d := bootOp(p, s, func(s kernel.Spec) kernel.Result {
					return kernel.BootWith(s, 0, kernel.BootOptions{Workers: n})
				})
				wall += d
				m := w.byModel[s.CPU]
				m.wall += d
				m.insts += res.Insts
				if wi == 0 {
					first[i] = res
					p.stat("par "+s.String(), string(res.Outcome), res.Insts, uint64(res.SimTicks))
					continue
				}
				// The determinism contract: one answer per spec at
				// every worker count.
				if f := first[i]; f.Outcome != res.Outcome || f.Insts != res.Insts ||
					f.SimTicks != res.SimTicks || f.Console != res.Console {
					p.fail(fmt.Errorf("boot %s: %d workers gave insts=%d ticks=%d, 1 worker insts=%d ticks=%d",
						s, n, res.Insts, res.SimTicks, f.Insts, f.SimTicks))
				}
			}
			w.wallAt[wi] += wall
			return wall
		})
	}
}

func (w *simPar) finish(p *pass) {
	reportMIPS(p, w.byModel)
	w.parSim.report(p)
	if w.wallAt[1] > 0 {
		p.layer["sim.parN_speedup"] = float64(w.wallAt[0]) / float64(w.wallAt[1])
	}
	// The same cells once on the monolithic engine: what the component
	// model costs single-threaded.
	var mono time.Duration
	for _, s := range w.cells {
		t0 := time.Now()
		kernel.Boot(s, 0)
		mono += time.Since(t0)
	}
	if rounds := len(p.rounds); mono > 0 && rounds > 0 {
		p.layer["sim.par1_vs_mono"] = float64(w.wallAt[0]) / float64(rounds) / float64(mono)
	}
	probeEventQueue(p)
}

func (w *simPar) close() {}

// probeEventQueue times a self-rescheduling chain on sim.EventQueue:
// the schedule-pop-dispatch cost of the kernel with no model work.
func probeEventQueue(p *pass) {
	const events = 1_000_000
	q := sim.NewEventQueue()
	left := events
	var step func()
	step = func() {
		left--
		if left > 0 {
			q.After(1, step)
		}
	}
	q.After(1, step)
	m0 := mallocs()
	t0 := time.Now()
	q.Run()
	d := time.Since(t0)
	p.layer["sim.queue_ns_per_event"] = float64(d) / events
	p.layer["sim.queue_allocs_per_event"] = float64(mallocs()-m0) / events
}
