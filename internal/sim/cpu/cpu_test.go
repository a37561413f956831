package cpu

import (
	"strings"
	"testing"

	"gem5art/internal/sim"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

func compute(iters int64) *isa.Program {
	return isa.Generate(isa.GenSpec{Name: "compute", Seed: 7, Iterations: iters,
		BodyOps: 24, FootprintWords: 64})
}

func memBound(iters int64) *isa.Program {
	return isa.Generate(isa.GenSpec{Name: "membound", Seed: 8, Iterations: iters,
		BodyOps: 24, Mix: isa.Mix{Load: 0.6, Store: 0.2},
		FootprintWords: 1 << 18, StrideWords: 17}) // 2 MiB footprint, cache-hostile
}

func runModel(t *testing.T, model Model, cores int, prog func(int64) *isa.Program, iters int64) Result {
	t.Helper()
	var m mem.System = mem.NewClassic(cores, mem.ClassicConfig{})
	sys := NewSystem(Config{Model: model, Cores: cores}, m)
	for i := 0; i < cores; i++ {
		sys.LoadProgram(i, prog(iters))
	}
	res := sys.Run(0)
	if !res.Finished {
		t.Fatalf("%s did not finish", model)
	}
	return res
}

func TestAllModelsExecuteSameInstructionCount(t *testing.T) {
	var counts []uint64
	for _, model := range AllModels {
		res := runModel(t, model, 1, compute, 100)
		counts = append(counts, res.Insts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			t.Fatalf("models disagree on instruction count: %v", counts)
		}
	}
}

func TestModelSpeedOrdering(t *testing.T) {
	// KVM must be fastest (simulated time), then Atomic, Timing, with O3
	// faster than Timing on compute code (it is superscalar) — the
	// ordering gem5 users expect and Figure 8's caption describes.
	ticks := map[Model]sim.Tick{}
	for _, model := range AllModels {
		ticks[model] = runModel(t, model, 1, memBound, 500).SimTicks
	}
	if !(ticks[KVM] < ticks[Atomic]) {
		t.Fatalf("KVM (%d) should beat Atomic (%d)", ticks[KVM], ticks[Atomic])
	}
	if !(ticks[Atomic] < ticks[Timing]) {
		t.Fatalf("Atomic (%d) should beat Timing (%d) on memory-bound code", ticks[Atomic], ticks[Timing])
	}
	if !(ticks[O3] < ticks[Timing]) {
		t.Fatalf("O3 (%d) should beat Timing (%d)", ticks[O3], ticks[Timing])
	}
	cticks := map[Model]sim.Tick{
		Atomic: runModel(t, Atomic, 1, compute, 2000).SimTicks,
		Timing: runModel(t, Timing, 1, compute, 2000).SimTicks,
	}
	if cticks[Atomic] != cticks[Timing] {
		t.Fatalf("without memory ops Atomic (%d) and Timing (%d) should agree",
			cticks[Atomic], cticks[Timing])
	}
}

func TestTimingSensitiveToMemorySystem(t *testing.T) {
	// The same memory-bound program must run slower through Ruby than
	// through a bare classic hierarchy, and slower with a hostile stride.
	run := func(m mem.System) sim.Tick {
		sys := NewSystem(Config{Model: Timing, Cores: 1}, m)
		sys.LoadProgram(0, memBound(300))
		res := sys.Run(0)
		if !res.Finished {
			t.Fatal("did not finish")
		}
		return res.SimTicks
	}
	classic := run(mem.NewClassic(1, mem.ClassicConfig{}))
	ruby := run(mem.NewRuby(1, mem.MESITwoLevel, mem.ClassicConfig{}))
	if ruby <= classic {
		t.Fatalf("ruby (%d) should be slower than classic (%d)", ruby, classic)
	}
}

func TestMemBoundSlowerThanCompute(t *testing.T) {
	cTicks := runModel(t, Timing, 1, compute, 500).SimTicks
	mTicks := runModel(t, Timing, 1, memBound, 500).SimTicks
	if mTicks <= cTicks {
		t.Fatalf("memory-bound (%d) not slower than compute (%d)", mTicks, cTicks)
	}
}

func TestO3OverlapsMisses(t *testing.T) {
	// O3 should beat TimingSimple by more on memory-bound code than the
	// issue width alone explains, because it overlaps misses.
	tTicks := runModel(t, Timing, 1, memBound, 400).SimTicks
	oTicks := runModel(t, O3, 1, memBound, 400).SimTicks
	if oTicks >= tTicks {
		t.Fatalf("O3 (%d) not faster than Timing (%d) on memory-bound code", oTicks, tTicks)
	}
}

func TestMultiCoreParallelSpeedup(t *testing.T) {
	// Per-core work is fixed, so wall time should stay roughly flat as
	// cores scale (each core runs its own copy), while total instructions
	// scale with core count.
	res1 := runModel(t, Timing, 1, compute, 1000)
	res4 := runModel(t, Timing, 4, compute, 1000)
	if res4.Insts < 3*res1.Insts {
		t.Fatalf("4-core run executed %d insts vs %d single-core", res4.Insts, res1.Insts)
	}
	if res4.SimTicks > res1.SimTicks*3 {
		t.Fatalf("4 independent cores took %d ticks vs %d for 1 — no parallelism",
			res4.SimTicks, res1.SimTicks)
	}
	if len(res4.InstsPer) != 4 {
		t.Fatalf("per-core counts: %v", res4.InstsPer)
	}
}

func TestAtomicContentionOrdering(t *testing.T) {
	// Cores incrementing a shared counter via AMOADD must produce the sum
	// of all increments — the event queue serializes them correctly.
	prog := func() *isa.Program {
		p, err := isa.Assemble("incr", `
			addi x1, x0, 100    # iterations
			addi x2, x0, 65536  # shared address
			addi x3, x0, 1
		loop:
			amoadd x4, x3, (x2)
			addi x1, x1, -1
			bne x1, x0, loop
			sys exit
		`)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := mem.NewRuby(4, mem.MESITwoLevel, mem.ClassicConfig{})
	sys := NewSystem(Config{Model: Timing, Cores: 4}, m)
	for i := 0; i < 4; i++ {
		sys.LoadProgram(i, prog())
	}
	res := sys.Run(0)
	if !res.Finished {
		t.Fatal("did not finish")
	}
	if got := m.Store().ReadWord(65536); got != 400 {
		t.Fatalf("shared counter = %d, want 400", got)
	}
}

func TestTimeoutLeavesUnfinished(t *testing.T) {
	sys := NewSystem(Config{Model: Timing, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	sys.LoadProgram(0, compute(1_000_000))
	res := sys.Run(1000) // absurdly short budget
	if res.Finished {
		t.Fatal("run finished within an impossible budget")
	}
	if res.SimTicks > 2_000_000 {
		t.Fatalf("timeout overshot: %d ticks", res.SimTicks)
	}
}

func TestConsoleOutput(t *testing.T) {
	p, err := isa.Assemble("hello", `
		addi x1, x0, 72    # 'H'
		sys print
		addi x1, x0, 105   # 'i'
		sys print
		sys exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Config{Model: Atomic, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	sys.LoadProgram(0, p)
	res := sys.Run(0)
	if res.Console != "Hi" {
		t.Fatalf("console = %q", res.Console)
	}
}

func TestStatsIPC(t *testing.T) {
	m := mem.NewClassic(1, mem.ClassicConfig{})
	sys := NewSystem(Config{Model: O3, Cores: 1}, m)
	sys.LoadProgram(0, compute(1000))
	sys.Run(0)
	vals := sys.Stats().Values()
	if vals["sim_insts"] == 0 {
		t.Fatal("sim_insts not recorded")
	}
	ipc := vals["ipc"]
	if ipc <= 1.0 || ipc > 8.0 {
		t.Fatalf("O3 compute IPC = %v, want (1, 8]", ipc)
	}
	// TimingSimple on the same program must have IPC <= 1.
	sys2 := NewSystem(Config{Model: Timing, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	sys2.LoadProgram(0, compute(1000))
	sys2.Run(0)
	if got := sys2.Stats().Values()["ipc"]; got > 1.0 {
		t.Fatalf("TimingSimple IPC = %v, want <= 1", got)
	}
}

func TestO3BranchPredictorLearns(t *testing.T) {
	// A long loop with a stable backward branch should mispredict rarely
	// once the 2-bit counters warm up.
	p, err := isa.Assemble("loopy", `
		addi x1, x0, 10000
	loop:
		addi x1, x1, -1
		bne x1, x0, loop
		sys exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Config{Model: O3, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	sys.LoadProgram(0, p)
	res := sys.Run(0)
	rate := float64(res.Mispredict) / 10000
	if rate > 0.01 {
		t.Fatalf("mispredict rate %.4f on a monotone loop", rate)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		m := mem.NewRuby(2, mem.MIExample, mem.ClassicConfig{})
		sys := NewSystem(Config{Model: O3, Cores: 2}, m)
		for i := 0; i < 2; i++ {
			sys.LoadProgram(i, memBound(100))
		}
		return sys.Run(0)
	}
	a, b := run(), run()
	if a.SimTicks != b.SimTicks || a.Insts != b.Insts {
		t.Fatalf("nondeterministic: %v vs %v ticks, %v vs %v insts",
			a.SimTicks, b.SimTicks, a.Insts, b.Insts)
	}
}

func TestInstructionTrace(t *testing.T) {
	p, err := isa.Assemble("traced", `
		addi x1, x0, 3
	loop:
		addi x1, x1, -1
		bne x1, x0, loop
		sys exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		core int
		pc   int64
		op   isa.Op
	}
	var got []rec
	sys := NewSystem(Config{Model: Timing, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	sys.SetTrace(func(core int, tick sim.Tick, pc int64, in isa.Inst) {
		got = append(got, rec{core, pc, in.Op})
	}, 0)
	sys.LoadProgram(0, p)
	sys.Run(0)
	// 1 + 3*(addi,bne) + sys = 8 instructions.
	if len(got) != 8 {
		t.Fatalf("traced %d instructions, want 8: %v", len(got), got)
	}
	if got[0].pc != 0 || got[0].op != isa.ADDI {
		t.Fatalf("first record: %+v", got[0])
	}
	if got[7].op != isa.SYS {
		t.Fatalf("last record: %+v", got[7])
	}
}

func TestTraceLimit(t *testing.T) {
	count := 0
	sys := NewSystem(Config{Model: Atomic, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	sys.SetTrace(func(int, sim.Tick, int64, isa.Inst) { count++ }, 5)
	sys.LoadProgram(0, compute(100))
	sys.Run(0)
	if count != 5 {
		t.Fatalf("trace limit: %d records, want 5", count)
	}
}

// memKinds are the three memory systems of the Figure 8 sweep.
var memKinds = []string{"classic", "ruby.MI_example", "ruby.MESI_Two_Level"}

func newMem(kind string, cores int) mem.System {
	switch kind {
	case "classic":
		return mem.NewClassic(cores, mem.ClassicConfig{})
	case "ruby.MI_example":
		return mem.NewRuby(cores, mem.MIExample, mem.ClassicConfig{})
	default:
		return mem.NewRuby(cores, mem.MESITwoLevel, mem.ClassicConfig{})
	}
}

// TestNegativeDataAddress runs a program that Validate accepts and whose
// data addresses are below zero on every model over every memory
// system: cache set and DRAM bank indexes must stay in range for such
// addresses.
func TestNegativeDataAddress(t *testing.T) {
	p, err := isa.Assemble("negaddr", `
		addi   x2, x0, -64
		st     x2, 0(x2)
		ld     x3, 0(x2)
		amoadd x4, x2, (x2)
		addi   x5, x0, -9024    # in a DRAM row below zero
		ld     x6, 0(x5)
		sys    exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := isa.Validate(p); err != nil {
		t.Fatal(err)
	}
	for _, model := range AllModels {
		for _, kind := range memKinds {
			t.Run(string(model)+"/"+kind, func(t *testing.T) {
				m := newMem(kind, 1)
				mono := NewSystem(Config{Model: model}, m)
				mono.LoadProgram(0, p)
				if r := mono.Run(0); !r.Finished || r.Insts != 7 {
					t.Errorf("monolithic: finished %v after %d insts", r.Finished, r.Insts)
				}
				if got := m.Store().ReadWord(-64); got != -128 {
					t.Errorf("monolithic: word at -64 is %d, want -128", got)
				}
			})
		}
	}
}

// mapPredictorMisses counts the mispredictions of a per-PC 2-bit
// predictor kept in a map, the predictor's reference form, over the
// functional execution of progs in turn on one core, and returns the
// running total after each program.
func mapPredictorMisses(progs ...*isa.Program) []uint64 {
	bpred := map[int64]uint8{}
	store := mem.NewBackingStore()
	var totals []uint64
	var misses uint64
	for _, p := range progs {
		var s isa.State
		var res isa.Result
		for !res.Done {
			pc := s.PC
			isa.Run(&s, p, store, nil, 1, 0, &res)
			if !res.Inst.IsBranch() || res.Inst.Op == isa.JAL {
				continue
			}
			ctr := bpred[pc]
			if (ctr >= 2) != res.Taken {
				misses++
			}
			if res.Taken && ctr < 3 {
				ctr++
			}
			if !res.Taken && ctr > 0 {
				ctr--
			}
			bpred[pc] = ctr
		}
		totals = append(totals, misses)
	}
	return totals
}

// TestO3PredictorMatchesMapAcrossReloads: the O3 predictor table grows
// with each program and keeps its counters, so a shorter program and
// then a longer one on the same core mispredict exactly as a per-PC map
// that survives reloads does. The longer program's
// branch at PC 2 is never taken where the shorter one's looped, so a
// predictor cleared by the reload would mispredict it less.
func TestO3PredictorMatchesMapAcrossReloads(t *testing.T) {
	asm := func(src string) *isa.Program {
		p, err := isa.Assemble("bpred", src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	short := asm(`
		addi x1, x0, 20
	loop:
		addi x1, x1, -1
		bne  x1, x0, loop
		sys  exit
	`)
	long := asm(`
		addi x1, x0, 20
		addi x1, x1, -1
		beq  x1, x0, next
	next:
		addi x2, x0, 30
	loop:
		addi x2, x2, -1
		blt  x0, x2, loop
		sys  exit
	`)
	want := mapPredictorMisses(short, long)
	if cold := mapPredictorMisses(long)[0]; want[1]-want[0] == cold {
		t.Fatalf("test premise: %d mispredicts after the reload, as many as cold", cold)
	}
	mono := NewSystem(Config{Model: O3}, mem.NewClassic(1, mem.ClassicConfig{}))
	for i, p := range []*isa.Program{short, long} {
		mono.LoadProgram(0, p)
		if got := mono.Run(0).Mispredict; got != want[i] {
			t.Errorf("program %d: %d mispredicts, want %d", i, got, want[i])
		}
	}
}

// robWindowProgram is a single-core program that reaches O3's ROB-window
// stall while one miss has completed and another is still outstanding:
// an L2-hit load and a DRAM load issue together, and the 63 instructions
// after them (eight DIVs among ALU ops) outlast the first and not the
// second. Four DIVs follow the window, so a stall that waits for the
// wrong miss, or for none, ends the run at another tick.
func robWindowProgram(t *testing.T) *isa.Program {
	t.Helper()
	var src strings.Builder
	src.WriteString(`
		addi x10, x0, 65536
		ld   x5, 0(x10)       # DRAM; the L2 prefetches the next line
		fence                 # the batch ends with no miss in flight
		ld   x5, 64(x10)      # L2 hit
		ld   x6, 8192(x10)    # DRAM, another bank
	`)
	for i := 0; i < 63; i++ {
		if i%8 == 3 {
			src.WriteString("div x7, x7, x8\n")
		} else {
			src.WriteString("addi x8, x8, 1\n")
		}
	}
	src.WriteString(strings.Repeat("div x7, x7, x8\n", 4) + "sys exit\n")
	p, err := isa.Assemble("robwindow", src.String())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestO3ROBStallWaitsForOutstandingMiss pins the ROB-window stall where
// completed and outstanding misses coexist: the stall must wait for the
// oldest miss still in flight, not for one that has already completed.
func TestO3ROBStallWaitsForOutstandingMiss(t *testing.T) {
	sys := NewSystem(Config{Model: O3, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{L2Prefetch: true}))
	sys.LoadProgram(0, robWindowProgram(t))
	res := sys.Run(0)
	if !res.Finished || res.Insts != 73 {
		t.Fatalf("finished %v after %d insts, want 73", res.Finished, res.Insts)
	}
	const want = 125652
	if res.SimTicks != want {
		t.Errorf("SimTicks = %d, want %d", res.SimTicks, want)
	}
}
