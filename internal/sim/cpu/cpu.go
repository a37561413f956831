// Package cpu implements the four CPU models the paper's boot sweep
// crosses (Figure 8), matching gem5's model family:
//
//   - KvmCPU: executes code at effectively host speed with no timing
//     model — the fast-forward CPU.
//   - AtomicSimpleCPU: one instruction per cycle with atomic (immediate)
//     memory accesses and no timing contention.
//   - TimingSimpleCPU: in-order and blocking; every memory access pays
//     the memory system's timed latency before the next instruction.
//   - O3CPU: a superscalar out-of-order model with a branch predictor,
//     limited MSHRs, and a reorder-buffer window that overlaps miss
//     latency with independent work.
//
// All models execute the same functional ISA (isa.Step) and differ only
// in how they charge time, which is exactly gem5's structure.
package cpu

import (
	"bytes"
	"fmt"

	"gem5art/internal/sim"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// Model names a CPU timing model.
type Model string

// The four models from Figure 8.
const (
	KVM    Model = "kvmCPU"
	Atomic Model = "AtomicSimpleCPU"
	Timing Model = "TimingSimpleCPU"
	O3     Model = "O3CPU"
)

// AllModels lists every CPU model in the paper's sweep order.
var AllModels = []Model{KVM, Atomic, Timing, O3}

// Config describes the CPU side of a simulated system.
type Config struct {
	Model  Model
	Cores  int
	FreqHz uint64 // default 3 GHz
}

func (c *Config) defaults() {
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.FreqHz == 0 {
		c.FreqHz = 3_000_000_000
	}
}

// Result summarizes a finished (or timed-out) simulation.
type Result struct {
	SimTicks   sim.Tick
	Insts      uint64
	InstsPer   []uint64
	Finished   bool // every core reached SYS exit
	ROITicks   sim.Tick
	Console    string
	Mispredict uint64 // O3 only
}

// System couples cores to a memory hierarchy on one event queue.
type System struct {
	cfg     Config
	clock   sim.Clock
	eq      *sim.EventQueue
	memory  mem.System
	cores   []*core
	stats   *sim.StatGroup
	console bytes.Buffer

	roiBegin sim.Tick
	roiEnd   sim.Tick

	trace     TraceFunc
	traceLeft int64

	simInsts *sim.Scalar
	perCore  *sim.Vector
	mispred  *sim.Scalar

	reportedInsts uint64 // instructions already credited to telemetry
}

type core struct {
	id       int
	sys      *System
	state    isa.State
	prog     *isa.Program
	done     bool
	insts    uint64
	inflight []sim.Tick      // O3: completion times of outstanding misses
	bpred    map[int64]uint8 // O3: per-PC 2-bit counters
	stepFn   func()          // c.step bound once, so rescheduling allocates no closure
}

// batchInsts bounds how many instructions a core executes inside one
// event before yielding to the global queue, trading a little multi-core
// interleaving precision for speed. Synchronization instructions always
// yield so cross-core atomics stay ordered.
const batchInsts = 128

// NewSystem builds a simulated system. The memory system's core count
// must cover cfg.Cores.
func NewSystem(cfg Config, m mem.System) *System {
	cfg.defaults()
	s := &System{
		cfg:    cfg,
		clock:  sim.NewClock(cfg.FreqHz),
		eq:     sim.NewEventQueue(),
		memory: m,
		stats:  sim.NewStatGroup(),
	}
	for i := 0; i < cfg.Cores; i++ {
		c := &core{id: i, sys: s, bpred: make(map[int64]uint8)}
		c.stepFn = c.step
		s.cores = append(s.cores, c)
	}
	s.simInsts = s.stats.Scalar("sim_insts", "total committed instructions")
	s.perCore = s.stats.Vector("system.cpu.committedInsts", "per-core committed instructions", cfg.Cores)
	s.mispred = s.stats.Scalar("system.cpu.branchMispredicts", "branch mispredictions (O3)")
	s.stats.Formula("sim_ticks", "simulated ticks", func() float64 { return float64(s.eq.Now()) })
	s.stats.Formula("ipc", "aggregate instructions per cycle", func() float64 {
		cycles := float64(s.eq.Now()) / float64(s.clock.Period)
		if cycles == 0 {
			return 0
		}
		return s.simInsts.Value() / cycles
	})
	return s
}

// Stats returns the CPU-side statistics group.
func (s *System) Stats() *sim.StatGroup { return s.stats }

// TraceFunc receives one committed instruction — the analogue of gem5's
// --debug-flags=Exec trace.
type TraceFunc func(core int, tick sim.Tick, pc int64, in isa.Inst)

// SetTrace installs a per-instruction trace callback, limited to the
// first max instructions (0 = unlimited). Tracing costs host time; leave
// it off for sweeps.
func (s *System) SetTrace(fn TraceFunc, max int64) {
	s.trace = fn
	if max <= 0 {
		max = 1 << 62
	}
	s.traceLeft = max
}

// traceInst emits one trace record if tracing is armed.
func (s *System) traceInst(core int, tick sim.Tick, pc int64, in isa.Inst) {
	if s.trace == nil || s.traceLeft <= 0 {
		return
	}
	s.traceLeft--
	s.trace(core, tick, pc, in)
}

// LoadProgram installs a program on one core, resetting its state.
func (s *System) LoadProgram(coreID int, prog *isa.Program) {
	c := s.cores[coreID]
	c.state = isa.State{}
	c.prog = prog
	c.done = prog == nil
}

// sysHandler services SYS instructions for one core.
func (s *System) sysHandler(c *core) isa.SysHandler {
	return func(fn int32, arg int64) bool {
		switch fn {
		case isa.SysExit:
			return true
		case isa.SysWorkBegin:
			if s.roiBegin == 0 {
				s.roiBegin = s.eq.Now()
			}
		case isa.SysWorkEnd:
			s.roiEnd = s.eq.Now()
		case isa.SysPrint:
			s.console.WriteByte(byte(arg))
		}
		return false
	}
}

// Run simulates until every loaded core exits or maxTicks elapses, and
// returns the result. maxTicks of 0 means no limit.
func (s *System) Run(maxTicks sim.Tick) Result {
	startTick := s.eq.Now()
	done := sim.RunScope()
	for _, c := range s.cores {
		if c.prog != nil && !c.done {
			s.eq.Schedule(s.eq.Now(), c.stepFn)
		}
	}
	if maxTicks == 0 {
		s.eq.Run()
	} else {
		s.eq.RunUntil(maxTicks)
	}
	done(s.eq.Now() - startTick)
	res := Result{
		SimTicks:   s.eq.Now(),
		Finished:   true,
		Console:    s.console.String(),
		Mispredict: uint64(s.mispred.Value()),
	}
	for _, c := range s.cores {
		res.Insts += c.insts
		res.InstsPer = append(res.InstsPer, c.insts)
		if c.prog != nil && !c.done {
			res.Finished = false
		}
	}
	// Credit only the instructions this Run call committed, so repeated
	// Run calls on one system never double-count.
	sim.CountInstructions(res.Insts - s.reportedInsts)
	s.reportedInsts = res.Insts
	if s.roiEnd > s.roiBegin {
		res.ROITicks = s.roiEnd - s.roiBegin
	}
	return res
}

// step runs one scheduling quantum for the core under the configured
// timing model and reschedules itself.
func (c *core) step() {
	if c.done {
		return
	}
	switch c.sys.cfg.Model {
	case KVM:
		c.stepKVM()
	case Atomic:
		c.stepSimple(true)
	case Timing:
		c.stepSimple(false)
	case O3:
		c.stepO3()
	default:
		panic(fmt.Sprintf("cpu: unknown model %q", c.sys.cfg.Model))
	}
}

func (c *core) commit(n uint64) {
	c.insts += n
	c.sys.simInsts.Add(float64(n))
	c.sys.perCore.Add(c.id, float64(n))
}

// stepKVM executes a large batch functionally with a nominal host-speed
// cost (~10 GIPS equivalent) and no memory timing.
func (c *core) stepKVM() {
	const kvmBatch = 4096
	const ticksPerInst = 100 // 10 G "inst/s" in simulated time
	eq := c.sys.eq
	store := c.sys.memory.Store()
	sys := c.sys.sysHandler(c)
	executed := 0
	for executed < kvmBatch {
		pcBefore := c.state.PC
		res := isa.Step(&c.state, c.prog, store, sys)
		c.sys.traceInst(c.id, eq.Now(), pcBefore, res.Inst)
		executed++
		if res.Done {
			c.done = true
			break
		}
	}
	c.commit(uint64(executed))
	if c.done {
		eq.After(sim.Tick(executed*ticksPerInst), func() {})
		return
	}
	eq.After(sim.Tick(executed*ticksPerInst), c.stepFn)
}

// stepSimple implements both simple CPUs. Atomic charges one cycle per
// instruction and treats memory as immediate; Timing additionally blocks
// for the memory system's latency on every access.
func (c *core) stepSimple(atomic bool) {
	eq := c.sys.eq
	memory := c.sys.memory
	store := memory.Store()
	sys := c.sys.sysHandler(c)
	period := c.sys.clock.Period
	now := eq.Now()
	executed := 0
	for executed < batchInsts {
		pcBefore := c.state.PC
		res := isa.Step(&c.state, c.prog, store, sys)
		c.sys.traceInst(c.id, now, pcBefore, res.Inst)
		executed++
		now += period
		isSync := res.Inst.Class() == isa.ClassAtomic || res.Inst.Class() == isa.ClassFence
		if res.Inst.IsMem() && !atomic {
			typ := mem.Read
			if res.IsWrite {
				typ = mem.Write
			}
			if res.Inst.Class() == isa.ClassAtomic {
				typ = mem.Atomic
			}
			now += memory.Access(now, mem.Request{Addr: res.MemAddr, Type: typ, Core: c.id})
		}
		if res.Done {
			c.done = true
			break
		}
		if isSync {
			break // resynchronize with other cores at atomics
		}
	}
	c.commit(uint64(executed))
	if c.done {
		eq.Schedule(now, func() {}) // advance time past the final batch
		return
	}
	eq.Schedule(now, c.stepFn)
}

// O3 microarchitectural parameters (per gem5's default O3CPU scaled to
// this abstraction level).
const (
	o3Width       = 8  // issue width
	o3ROB         = 64 // instructions that may slide past an outstanding miss
	o3MSHRs       = 4  // outstanding misses
	o3MispredCost = 14 // cycles
	o3MulLatency  = 3
	o3DivLatency  = 12
	o3MissThresh  = 8000 // ticks; faster accesses are treated as misses
)

// stepO3 models an out-of-order core: up to o3Width instructions issue
// per cycle; cache misses allocate MSHRs and retire in the background
// while younger instructions continue, until the ROB window or MSHRs are
// exhausted; a 2-bit predictor charges mispredictions.
func (c *core) stepO3() {
	eq := c.sys.eq
	memory := c.sys.memory
	store := memory.Store()
	sys := c.sys.sysHandler(c)
	period := c.sys.clock.Period
	now := eq.Now()
	executed := 0
	sinceOldestMiss := 0
	var cycleFrac uint64 // instructions issued in the current cycle

	advance := func(cycles uint64) { now += sim.Tick(cycles) * period }

	for executed < batchInsts {
		// Drain MSHRs that have completed by 'now'.
		live := c.inflight[:0]
		for _, t := range c.inflight {
			if t > now {
				live = append(live, t)
			}
		}
		c.inflight = live

		pcBefore := c.state.PC
		res := isa.Step(&c.state, c.prog, store, sys)
		c.sys.traceInst(c.id, now, pcBefore, res.Inst)
		executed++
		cycleFrac++
		if cycleFrac >= o3Width {
			cycleFrac = 0
			advance(1)
		}
		switch res.Inst.Class() {
		case isa.ClassMulDiv:
			if res.Inst.Op == isa.DIV {
				advance(o3DivLatency - 1)
			} else {
				advance(o3MulLatency - 1)
			}
		case isa.ClassBranch:
			if c.mispredicted(pcBefore, res) {
				c.sys.mispred.Inc()
				advance(o3MispredCost)
				cycleFrac = 0
			}
		}
		if res.Inst.IsMem() {
			typ := mem.Read
			if res.IsWrite {
				typ = mem.Write
			}
			sync := res.Inst.Class() == isa.ClassAtomic
			if sync {
				typ = mem.Atomic
			}
			lat := memory.Access(now, mem.Request{Addr: res.MemAddr, Type: typ, Core: c.id})
			if sync {
				// Atomics drain the pipeline: wait for everything.
				for _, t := range c.inflight {
					if t > now {
						now = t
					}
				}
				c.inflight = c.inflight[:0]
				now += lat
				c.commit(uint64(executed))
				if res.Done {
					c.done = true
					eq.Schedule(now, func() {})
					return
				}
				eq.Schedule(now, c.stepFn)
				return
			}
			if lat > o3MissThresh {
				// A miss: issue it and keep going under the ROB window.
				if len(c.inflight) >= o3MSHRs {
					// Structural stall: wait for the oldest miss.
					oldest := c.inflight[0]
					for _, t := range c.inflight {
						if t < oldest {
							oldest = t
						}
					}
					if oldest > now {
						now = oldest
					}
				}
				c.inflight = append(c.inflight, now+lat)
				sinceOldestMiss = 0
			} else {
				now += lat // L1 hits still serialize a little
			}
		}
		if len(c.inflight) > 0 {
			sinceOldestMiss++
			if sinceOldestMiss >= o3ROB {
				oldest := c.inflight[0]
				for _, t := range c.inflight {
					if t < oldest {
						oldest = t
					}
				}
				if oldest > now {
					now = oldest
				}
				sinceOldestMiss = 0
			}
		}
		if res.Done {
			c.done = true
			break
		}
		if res.Inst.Class() == isa.ClassFence {
			break
		}
	}
	for _, t := range c.inflight {
		if t > now {
			now = t
		}
	}
	c.inflight = c.inflight[:0]
	c.commit(uint64(executed))
	if c.done {
		eq.Schedule(now, func() {})
		return
	}
	eq.Schedule(now, c.stepFn)
}

// mispredicted consults and updates a per-PC 2-bit saturating counter
// keyed by the branch's own PC.
func (c *core) mispredicted(pc int64, res isa.StepResult) bool {
	return bpredMiss(c.bpred, pc, res)
}

// bpredMiss is the 2-bit saturating predictor shared by the monolithic
// and parallel O3 cores.
func bpredMiss(bpred map[int64]uint8, pc int64, res isa.StepResult) bool {
	if res.Inst.Op == isa.JAL {
		return false // unconditional
	}
	ctr := bpred[pc]
	predictTaken := ctr >= 2
	taken := res.Taken
	if taken && ctr < 3 {
		ctr++
	}
	if !taken && ctr > 0 {
		ctr--
	}
	bpred[pc] = ctr
	return predictTaken != taken
}
