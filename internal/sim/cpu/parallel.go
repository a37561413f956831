package cpu

import (
	"bytes"
	"fmt"
	"strings"

	"gem5art/internal/sim"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// ParallelSystem is the component/port counterpart of System: each core
// is a Component with a private L1 and a private functional memory
// replica, the backside hierarchy is a mem.Controller component, and a
// sim.Scheduler executes them over conservative time windows. Results
// are bit-identical across worker counts (the golden-stats test in
// parallel_test.go pins this), but differ from the monolithic engine —
// loads and stores hit private replicas and coherence actions travel as
// messages — so runs through this engine carry their own simcache salt.
//
// Model mapping (documented deltas from the monolithic engine):
//   - L1 hits are core-local and cost the same hitLat.
//   - L1 misses suspend at the miss (Timing) or run ahead under the
//     MSHR/ROB limits (O3) until the response message arrives; the round
//     trip reproduces the monolithic latency.
//   - AMOADD always round-trips to the controller, which serializes all
//     cores' atomics against the authoritative store — the only shared
//     functional state. KVM/Atomic models therefore observe link latency
//     on atomics where the monolithic engine charged nothing.
//   - Instruction tracing (SetTrace) is not supported.
type ParallelSystem struct {
	cfg     Config
	memKind string
	sched   *sim.Scheduler
	ctrl    *mem.Controller
	cores   []*pcore
	stats   *sim.StatGroup
	groups  []*sim.StatGroup // merge sources: per-core + controller

	resumeTick    sim.Tick // checkpoint restore: first step no earlier than this
	reportedInsts uint64
}

// waitKind says why a core is suspended between port messages.
type waitKind uint8

const (
	waitNone        waitKind = iota
	waitResp                 // blocking miss (Timing): resume batch on response
	waitMSHR                 // O3: MSHRs full with a request pending issue
	waitROB                  // O3: ROB window exhausted; resume on any response
	waitDrainAtomic          // O3: draining outstanding misses before an atomic
	waitAtomic               // atomic response pending (all models)
	waitDrainEnd             // O3: batch done; draining before the next step
)

// pcore is one core component. All fields are touched only by the core's
// own events, which is what lets windows run without locks.
type pcore struct {
	id    int
	ps    *ParallelSystem
	model Model
	comp  *sim.Component
	port  *sim.Port
	// stepFn is c.step bound once: evaluating the method value at every
	// reschedule would allocate a closure per event.
	stepFn func()
	l1     *mem.L1Front
	store  *mem.BackingStore // private functional replica

	state isa.State
	prog  *isa.Program
	done  bool
	insts uint64
	bpred map[int64]uint8

	console  bytes.Buffer
	roiBegin sim.Tick
	roiEnd   sim.Tick

	simInsts *sim.Scalar
	perCore  *sim.Vector
	mispred  *sim.Scalar

	// Batch state, persisted across suspensions within one batch.
	wait        waitKind
	bnow        sim.Tick // the batch's absolute logical time
	executed    int      // committed-but-unreported instructions this batch
	outstanding int      // misses in flight at the controller
	cycleFrac   uint64   // O3 issue-slot fraction
	sinceMiss   int      // O3 ROB-window counter
	pendingReq  mem.BackReq
	atomicDelta int64
}

// NewParallelSystem builds a parallel system: cfg.Cores core components
// plus a memory controller for memKind ("classic", "ruby.MI_example",
// "ruby.MESI_Two_Level"), executed by the given number of workers
// (<= 0: host CPU count; the count never changes results).
func NewParallelSystem(cfg Config, memKind string, mcfg mem.ClassicConfig, workers int) *ParallelSystem {
	cfg.defaults()
	ps := &ParallelSystem{
		cfg:     cfg,
		memKind: memKind,
		sched:   sim.NewScheduler(workers),
		stats:   sim.NewStatGroup(),
	}
	ps.ctrl = mem.NewController(ps.sched, memKind, cfg.Cores, mcfg)
	ruby := memKind != "classic"
	clock := sim.NewClock(cfg.FreqHz)
	for i := 0; i < cfg.Cores; i++ {
		comp := ps.sched.NewComponent(fmt.Sprintf("cpu%d", i), clock)
		c := &pcore{
			id:    i,
			ps:    ps,
			model: cfg.Model,
			comp:  comp,
			store: mem.NewBackingStore(),
			bpred: make(map[int64]uint8),
		}
		c.l1 = mem.NewL1Front(i, ruby, mcfg, comp.Stats())
		c.simInsts = comp.Stats().Scalar("sim_insts", "total committed instructions")
		c.perCore = comp.Stats().Vector("system.cpu.committedInsts",
			"per-core committed instructions", cfg.Cores)
		c.mispred = comp.Stats().Scalar("system.cpu.branchMispredicts",
			"branch mispredictions (O3)")
		c.port = comp.NewPort("mem", mem.CtrlLinkLat)
		sim.Connect(c.port, ps.ctrl.CorePort(i))
		c.port.OnReceive(c.onMsg)
		c.stepFn = c.step
		ps.cores = append(ps.cores, c)
		ps.groups = append(ps.groups, comp.Stats())
	}
	ps.groups = append(ps.groups, ps.ctrl.Stats())

	ps.stats.DeclareFrom(ps.groups...)
	ps.stats.Formula("sim_ticks", "simulated ticks", func() float64 {
		return float64(ps.sched.Now())
	})
	ps.stats.Formula("ipc", "aggregate instructions per cycle", func() float64 {
		cycles := float64(ps.sched.Now()) / float64(clock.Period)
		if cycles == 0 {
			return 0
		}
		return ps.stats.Lookup("sim_insts").Value() / cycles
	})
	ps.sched.OnBarrier(ps.mergeStats)
	return ps
}

// Workers returns the scheduler's worker count.
func (ps *ParallelSystem) Workers() int { return ps.sched.Workers() }

// Scheduler exposes the underlying scheduler (the run watchdog and the
// benchmarks read its counters).
func (ps *ParallelSystem) Scheduler() *sim.Scheduler { return ps.sched }

// Close releases the scheduler's worker pool, if the run ever needed one.
// Call it when the system is dropped; statistics stay readable afterwards.
func (ps *ParallelSystem) Close() { ps.sched.Close() }

// mergeStats refreshes the aggregate group from the per-component ones.
// The scheduler calls it at window barriers, when every component is
// quiesced.
func (ps *ParallelSystem) mergeStats() { sim.MergeGroups(ps.stats, ps.groups...) }

// Stats returns the merged statistics group.
func (ps *ParallelSystem) Stats() *sim.StatGroup {
	ps.mergeStats()
	return ps.stats
}

// LoadProgram installs a program on one core, resetting its state.
func (ps *ParallelSystem) LoadProgram(coreID int, prog *isa.Program) {
	c := ps.cores[coreID]
	c.state = isa.State{}
	c.prog = prog
	c.done = prog == nil
}

// Run simulates until every loaded core exits or maxTicks elapses.
// maxTicks of 0 means no limit. Semantics mirror System.Run.
func (ps *ParallelSystem) Run(maxTicks sim.Tick) Result {
	start := ps.sched.Now()
	done := sim.RunScope()
	for _, c := range ps.cores {
		if c.prog != nil && !c.done && c.wait == waitNone {
			at := ps.resumeTick
			if at < c.comp.Now() {
				at = c.comp.Now()
			}
			c.comp.Schedule(at, c.stepFn)
		}
	}
	if maxTicks == 0 {
		ps.sched.Run()
	} else {
		ps.sched.RunUntil(maxTicks)
	}
	done(ps.sched.Now() - start)
	ps.mergeStats()

	res := Result{
		SimTicks:   ps.sched.Now(),
		Finished:   true,
		Mispredict: uint64(ps.stats.Lookup("system.cpu.branchMispredicts").Value()),
	}
	var console strings.Builder
	var roiBegin, roiEnd sim.Tick
	for _, c := range ps.cores {
		res.Insts += c.insts
		res.InstsPer = append(res.InstsPer, c.insts)
		if c.prog != nil && !c.done {
			res.Finished = false
		}
		console.Write(c.console.Bytes())
		if c.roiBegin > 0 && (roiBegin == 0 || c.roiBegin < roiBegin) {
			roiBegin = c.roiBegin
		}
		if c.roiEnd > roiEnd {
			roiEnd = c.roiEnd
		}
	}
	res.Console = console.String()
	if roiEnd > roiBegin {
		res.ROITicks = roiEnd - roiBegin
	}
	sim.CountInstructions(res.Insts - ps.reportedInsts)
	ps.reportedInsts = res.Insts
	return res
}

// SaveCheckpoint snapshots architectural state. The functional image is
// the authoritative store overlaid with each core's private replica in
// core order (deterministic last-writer-wins on aliased pages). Unlike
// the monolithic system, the parallel engine requires every core to be
// quiesced — no partial batch, no request in flight — which holds after
// any Run that completed; a mid-wait save would drop in-flight messages,
// so it panics instead of silently corrupting.
func (ps *ParallelSystem) SaveCheckpoint() *Checkpoint {
	tick := ps.sched.Now()
	if ps.resumeTick > tick { // restored but not yet re-run
		tick = ps.resumeTick
	}
	ck := &Checkpoint{Tick: tick}
	for _, c := range ps.cores {
		if c.wait != waitNone || c.outstanding > 0 || c.executed > 0 {
			panic(fmt.Sprintf("cpu: checkpoint of unquiesced core %d (wait=%d outstanding=%d)",
				c.id, c.wait, c.outstanding))
		}
	}
	for _, c := range ps.cores {
		ck.Cores = append(ck.Cores, CoreState{
			Regs:  c.state.Regs,
			PC:    c.state.PC,
			Done:  c.done,
			Insts: c.insts,
		})
	}
	merged := mem.NewBackingStore()
	merged.Overlay(ps.ctrl.Store())
	for _, c := range ps.cores {
		merged.Overlay(c.store)
	}
	ck.Mem = merged.Snapshot()
	return ck
}

// RestoreCheckpoint loads a snapshot: the memory image is broadcast to
// the authoritative store and every core replica, and simulation resumes
// at the checkpoint tick.
func (ps *ParallelSystem) RestoreCheckpoint(ck *Checkpoint) error {
	if len(ck.Cores) != len(ps.cores) {
		return fmt.Errorf("cpu: checkpoint has %d cores, system has %d",
			len(ck.Cores), len(ps.cores))
	}
	for i, cs := range ck.Cores {
		c := ps.cores[i]
		if c.prog == nil && !cs.Done {
			return fmt.Errorf("cpu: core %d has no program loaded", i)
		}
		c.state.Regs = cs.Regs
		c.state.PC = cs.PC
		c.done = cs.Done
		c.insts = cs.Insts
	}
	if err := ps.LoadMemImage(ck.Mem); err != nil {
		return err
	}
	ps.resumeTick = ck.Tick
	return nil
}

// LoadMemImage loads a functional memory snapshot into the authoritative
// store and every core replica — the parallel analogue of
// Store().LoadSnapshot, used to carry a booted image into a detailed
// phase without restoring core state.
func (ps *ParallelSystem) LoadMemImage(data []byte) error {
	if err := ps.ctrl.Store().LoadSnapshot(data); err != nil {
		return fmt.Errorf("cpu: restore memory: %w", err)
	}
	for _, c := range ps.cores {
		if err := c.store.LoadSnapshot(data); err != nil {
			return fmt.Errorf("cpu: restore core %d replica: %w", c.id, err)
		}
	}
	return nil
}

// ---- core execution ----

// sysFn services SYS instructions against core-local state; Run merges
// consoles and ROI marks deterministically in core order.
func (c *pcore) sysFn(fn int32, arg int64) bool {
	switch fn {
	case isa.SysExit:
		return true
	case isa.SysWorkBegin:
		if c.roiBegin == 0 {
			c.roiBegin = c.bnow
		}
	case isa.SysWorkEnd:
		c.roiEnd = c.bnow
	case isa.SysPrint:
		c.console.WriteByte(byte(arg))
	}
	return false
}

// commitBatch reports the batch's committed instructions to the
// core-local stats.
func (c *pcore) commitBatch() {
	if c.executed == 0 {
		return
	}
	n := uint64(c.executed)
	c.executed = 0
	c.insts += n
	c.simInsts.Add(float64(n))
	c.perCore.Add(c.id, float64(n))
}

// scheduleNext schedules the next batch (or a final time-advancing no-op
// for a finished core) at the batch's logical end time.
func (c *pcore) scheduleNext() {
	if c.bnow < c.comp.Now() {
		c.bnow = c.comp.Now()
	}
	if c.done {
		c.comp.Schedule(c.bnow, func() {})
		return
	}
	c.comp.Schedule(c.bnow, c.stepFn)
}

// step starts a fresh batch.
func (c *pcore) step() {
	if c.done {
		return
	}
	c.bnow = c.comp.Now()
	switch c.model {
	case KVM:
		c.kvmLoop()
	case Atomic:
		c.simpleLoop(true)
	case Timing:
		c.simpleLoop(false)
	case O3:
		c.o3Loop()
	default:
		panic(fmt.Sprintf("cpu: unknown model %q", c.model))
	}
}

// atAtomic reports whether the next instruction is an AMOADD, which must
// round-trip through the controller instead of isa.Step's local RMW.
func (c *pcore) atAtomic() bool {
	return c.state.PC >= 0 && c.state.PC < int64(len(c.prog.Insts)) &&
		c.prog.Insts[c.state.PC].Op == isa.AMOADD
}

// sendReq stages a request to the controller at the batch's logical time
// (plus the L1 lookup latency for cache-checked requests).
func (c *pcore) sendReq(req mem.BackReq, lookupLat sim.Tick) {
	c.port.SendAfter(c.bnow-c.comp.Now()+lookupLat, req.Msg())
}

// issueAtomic sends the AMOADD at the current PC to the controller. The
// instruction commits when the response arrives (applyAtomic).
func (c *pcore) issueAtomic() {
	in := c.prog.Insts[c.state.PC]
	addr := c.state.Regs[in.Rs1]
	c.atomicDelta = c.state.Regs[in.Rs2]
	_, _, req := c.l1.Probe(mem.Request{Addr: addr, Type: mem.Atomic, Core: c.id})
	req.Delta = c.atomicDelta
	c.wait = waitAtomic
	c.sendReq(req, 0)
}

// applyAtomic architecturally completes the AMOADD using the
// controller's old value, mirrors the RMW into the private replica, and
// ends the batch (atomics yield, as in the monolithic engine).
func (c *pcore) applyAtomic(at sim.Tick, resp mem.BackResp) {
	if at > c.bnow {
		c.bnow = at
	}
	in := c.prog.Insts[c.state.PC]
	if in.Rd != 0 {
		c.state.Regs[in.Rd] = resp.Old
	}
	c.state.Regs[0] = 0
	c.state.PC++
	c.store.WriteWord(resp.Addr, resp.Old+c.atomicDelta)
	if ev, ok := c.l1.Fill(resp); ok {
		c.port.Send(ev.Msg())
	}
	c.insts++
	c.simInsts.Inc()
	c.perCore.Add(c.id, 1)
	c.wait = waitNone
	c.scheduleNext()
}

// onMsg dispatches one port message.
func (c *pcore) onMsg(when sim.Tick, msg sim.Msg) {
	switch msg.Kind {
	case mem.MsgBackResp:
		c.onResp(when, mem.BackRespOf(msg))
	case mem.MsgCoherence:
		c.l1.Coherence(mem.CoherenceOf(msg))
	default:
		panic(fmt.Sprintf("cpu: core received message kind %d", msg.Kind))
	}
}

// onResp handles a controller response: account the completion, then
// resume whatever the core was waiting on.
func (c *pcore) onResp(at sim.Tick, resp mem.BackResp) {
	if resp.Kind == mem.ReqAtomic {
		c.applyAtomic(at, resp)
		return
	}
	if ev, ok := c.l1.Fill(resp); ok {
		c.port.Send(ev.Msg())
	}
	c.outstanding--
	if at > c.bnow {
		c.bnow = at
	}
	switch c.wait {
	case waitResp:
		c.wait = waitNone
		c.simpleLoop(false)
	case waitMSHR:
		if c.outstanding < o3MSHRs {
			c.wait = waitNone
			c.sendReq(c.pendingReq, c.l1.HitLat())
			c.outstanding++
			c.sinceMiss = 0
			c.o3Loop()
		}
	case waitROB:
		c.wait = waitNone
		c.sinceMiss = 0
		c.o3Loop()
	case waitDrainAtomic:
		if c.outstanding == 0 {
			c.issueAtomic()
		}
	case waitDrainEnd:
		if c.outstanding == 0 {
			c.wait = waitNone
			c.commitBatch()
			c.scheduleNext()
		}
	}
}

// kvmLoop mirrors stepKVM: big functional batches at a nominal
// ticks-per-instruction cost, with atomics routed to the controller.
func (c *pcore) kvmLoop() {
	const kvmBatch = 4096
	const ticksPerInst = 100
	t0 := c.comp.Now()
	for c.executed < kvmBatch {
		if c.atAtomic() {
			c.bnow = t0 + sim.Tick(c.executed)*ticksPerInst
			c.commitBatch()
			c.issueAtomic()
			return
		}
		res := isa.Step(&c.state, c.prog, c.store, c.sysFn)
		c.executed++
		if res.Done {
			c.done = true
			break
		}
	}
	c.bnow = t0 + sim.Tick(c.executed)*ticksPerInst
	c.commitBatch()
	c.scheduleNext()
}

// simpleLoop mirrors stepSimple: in-order execution, with Timing
// suspending at every L1 miss until the response returns. It is called
// both to start a batch and to resume one after a miss.
func (c *pcore) simpleLoop(atomicModel bool) {
	if c.done { // resumed after the final instruction's miss returned
		c.commitBatch()
		c.scheduleNext()
		return
	}
	period := c.comp.Clock().Period
	for c.executed < batchInsts {
		if c.atAtomic() {
			c.bnow += period
			c.commitBatch()
			c.issueAtomic()
			return
		}
		res := isa.Step(&c.state, c.prog, c.store, c.sysFn)
		c.executed++
		c.bnow += period
		if res.Inst.IsMem() && !atomicModel {
			typ := mem.Read
			if res.IsWrite {
				typ = mem.Write
			}
			lat, hit, req := c.l1.Probe(mem.Request{Addr: res.MemAddr, Type: typ, Core: c.id})
			if hit {
				c.bnow += lat
			} else {
				c.sendReq(req, c.l1.HitLat())
				c.outstanding++
				c.wait = waitResp
				if res.Done {
					c.done = true // exit still waits for the response
				}
				return
			}
		}
		if res.Done {
			c.done = true
			break
		}
		if res.Inst.Class() == isa.ClassFence {
			break // resynchronize with other cores at fences
		}
	}
	c.commitBatch()
	c.scheduleNext()
}

// o3Loop mirrors stepO3: wide issue, misses run ahead under MSHR and ROB
// limits, atomics drain the pipeline. Suspension points replace the
// monolithic engine's completion-time bookkeeping: the response arrival
// tick is the completion time.
func (c *pcore) o3Loop() {
	if c.done { // resumed after the final instruction; just drain
		if c.outstanding > 0 {
			c.wait = waitDrainEnd
			return
		}
		c.commitBatch()
		c.scheduleNext()
		return
	}
	period := c.comp.Clock().Period
	advance := func(cycles uint64) { c.bnow += sim.Tick(cycles) * period }
	for c.executed < batchInsts {
		if c.atAtomic() {
			if c.outstanding > 0 {
				c.wait = waitDrainAtomic
				return
			}
			c.issueAtomic()
			return
		}
		pcBefore := c.state.PC
		res := isa.Step(&c.state, c.prog, c.store, c.sysFn)
		c.executed++
		c.cycleFrac++
		if c.cycleFrac >= o3Width {
			c.cycleFrac = 0
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
			if bpredMiss(c.bpred, pcBefore, res) {
				c.mispred.Inc()
				advance(o3MispredCost)
				c.cycleFrac = 0
			}
		}
		if res.Inst.IsMem() {
			typ := mem.Read
			if res.IsWrite {
				typ = mem.Write
			}
			lat, hit, req := c.l1.Probe(mem.Request{Addr: res.MemAddr, Type: typ, Core: c.id})
			if hit {
				c.bnow += lat // L1 hits still serialize a little
			} else {
				c.sinceMiss = 0
				if c.outstanding >= o3MSHRs {
					// Structural stall: hold the request until an MSHR
					// frees (the next response arrival).
					c.pendingReq = req
					c.wait = waitMSHR
					if res.Done {
						c.done = true
					}
					return
				}
				c.sendReq(req, c.l1.HitLat())
				c.outstanding++
			}
		}
		if c.outstanding > 0 {
			c.sinceMiss++
			if c.sinceMiss >= o3ROB {
				c.wait = waitROB
				if res.Done {
					c.done = true
				}
				return
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
	if c.outstanding > 0 {
		c.wait = waitDrainEnd
		return
	}
	c.commitBatch()
	c.scheduleNext()
}
