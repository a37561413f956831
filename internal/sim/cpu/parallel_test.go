package cpu

import (
	"reflect"
	"runtime"
	"testing"

	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// parWorkload builds a seeded multi-core workload with enough loads,
// stores, branches, and cross-core atomics to exercise every port path.
func parWorkload(core int) *isa.Program {
	return isa.Generate(isa.GenSpec{
		Name:           "parsim-test",
		Seed:           97 + int64(core)*31,
		Iterations:     120,
		BodyOps:        40,
		Mix:            isa.Mix{Load: 0.3, Store: 0.15, Branch: 0.12, MulDiv: 0.04, Atomic: 0.04},
		FootprintWords: 1 << 12,
		StrideWords:    5,
		SharedWords:    16,
	})
}

func buildParallel(t *testing.T, model Model, memKind string, cores, workers int) *ParallelSystem {
	t.Helper()
	ps := NewParallelSystem(Config{Model: model, Cores: cores}, memKind, mem.ClassicConfig{}, workers)
	for c := 0; c < cores; c++ {
		ps.LoadProgram(c, parWorkload(c))
	}
	return ps
}

// TestParallelGoldenStats is the determinism contract: a seeded O3+Ruby
// configuration must produce bit-identical results and stat dumps when
// executed sequentially (1 worker) and in parallel (4 workers). CI runs
// this package under -race, so a scheduling-dependent divergence shows
// up either as a diff here or as a data race there.
func TestParallelGoldenStats(t *testing.T) {
	seq := buildParallel(t, O3, "ruby.MESI_Two_Level", 4, 1)
	par := buildParallel(t, O3, "ruby.MESI_Two_Level", 4, 4)

	seqRes := seq.Run(0)
	parRes := par.Run(0)

	if !seqRes.Finished || !parRes.Finished {
		t.Fatalf("runs did not finish: seq=%v par=%v", seqRes.Finished, parRes.Finished)
	}
	if !reflect.DeepEqual(seqRes, parRes) {
		t.Errorf("results diverge:\n  seq: %+v\n  par: %+v", seqRes, parRes)
	}
	seqDump, parDump := seq.Stats().Dump(), par.Stats().Dump()
	if seqDump != parDump {
		t.Errorf("stat dumps diverge between 1 and 4 workers:\n--- seq ---\n%s\n--- par ---\n%s",
			seqDump, parDump)
	}
	if seqRes.Insts == 0 {
		t.Error("no instructions committed")
	}
}

// TestParallelAllModels runs every CPU model on both memory families
// through the parallel engine and checks the runs complete with work on
// every core.
func TestParallelAllModels(t *testing.T) {
	for _, model := range AllModels {
		for _, memKind := range []string{"classic", "ruby.MI_example"} {
			ps := buildParallel(t, model, memKind, 2, 2)
			res := ps.Run(0)
			if !res.Finished {
				t.Errorf("%s/%s: did not finish", model, memKind)
			}
			for c, n := range res.InstsPer {
				if n == 0 {
					t.Errorf("%s/%s: core %d committed nothing", model, memKind, c)
				}
			}
		}
	}
}

// TestParallelMatchesMonolithicFunctionally pins that the parallel
// engine commits the same instruction stream as the monolithic engine.
// It runs a single core: with one core, the private replica and the
// shared store are indistinguishable, so the two engines must commit
// identical work even though their timing models differ. (Multi-core
// counts legitimately diverge — monolithic cores alias one store and
// atomics observe interleaving-dependent values; that is the documented
// fidelity gap.)
func TestParallelMatchesMonolithicFunctionally(t *testing.T) {
	cores := 1
	private := func(core int) *isa.Program {
		return isa.Generate(isa.GenSpec{
			Name:           "parsim-private",
			Seed:           41 + int64(core)*17,
			Iterations:     150,
			BodyOps:        36,
			Mix:            isa.Mix{Load: 0.3, Store: 0.15, Branch: 0.12, MulDiv: 0.04},
			FootprintWords: 1 << 12,
			StrideWords:    5,
		})
	}
	mono := NewSystem(Config{Model: Timing, Cores: cores}, mem.NewClassic(cores, mem.ClassicConfig{}))
	par := NewParallelSystem(Config{Model: Timing, Cores: cores}, "classic", mem.ClassicConfig{}, 2)
	for c := 0; c < cores; c++ {
		mono.LoadProgram(c, private(c))
		par.LoadProgram(c, private(c))
	}
	monoRes := mono.Run(0)
	parRes := par.Run(0)
	if !monoRes.Finished || !parRes.Finished {
		t.Fatalf("runs did not finish: mono=%v par=%v", monoRes.Finished, parRes.Finished)
	}
	if monoRes.Insts != parRes.Insts {
		t.Errorf("instruction counts diverge: mono=%d par=%d", monoRes.Insts, parRes.Insts)
	}
	if !reflect.DeepEqual(monoRes.InstsPer, parRes.InstsPer) {
		t.Errorf("per-core counts diverge: mono=%v par=%v", monoRes.InstsPer, parRes.InstsPer)
	}
	if monoRes.Console != parRes.Console {
		t.Errorf("console output diverges")
	}
}

// TestParallelCheckpoint mirrors the hack-back flow: run a KVM parallel
// system to completion, checkpoint, and restore into a fresh parallel
// system — architectural state and the merged memory image must survive
// the round trip.
func TestParallelCheckpoint(t *testing.T) {
	ps := buildParallel(t, KVM, "classic", 2, 2)
	res := ps.Run(0)
	if !res.Finished {
		t.Fatal("run did not finish")
	}
	ck := ps.SaveCheckpoint()
	if ck.Tick == 0 || len(ck.Cores) != 2 {
		t.Fatalf("bad checkpoint: tick=%d cores=%d", ck.Tick, len(ck.Cores))
	}

	// Serialize round trip, as the run layer archives it.
	parsed, err := ParseCheckpoint(ck.Serialize())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	re := buildParallel(t, KVM, "classic", 2, 2)
	if err := re.RestoreCheckpoint(parsed); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i, c := range re.cores {
		if !c.done {
			t.Errorf("core %d not done after restore", i)
		}
		if c.insts != ps.cores[i].insts {
			t.Errorf("core %d insts: got %d want %d", i, c.insts, ps.cores[i].insts)
		}
		if c.state.PC != ps.cores[i].state.PC {
			t.Errorf("core %d PC: got %d want %d", i, c.state.PC, ps.cores[i].state.PC)
		}
	}
	// The merged image must agree with the original system's view: for
	// every page in the checkpoint, the restored authoritative store
	// reads back identically.
	if got, want := re.ctrl.Store().Snapshot(), ck.Mem; string(got) != string(want) {
		t.Error("restored memory image diverges from checkpoint")
	}
	// A subsequent checkpoint of the restored system reproduces the tick.
	if ck2 := re.SaveCheckpoint(); ck2.Tick < ck.Tick {
		t.Errorf("restored system lost time: %d < %d", ck2.Tick, ck.Tick)
	}
}

// TestParallelWorkerCountIndependence sweeps worker counts on a Timing
// Ruby system — the worker count must never leak into results.
func TestParallelWorkerCountIndependence(t *testing.T) {
	var first Result
	var firstDump string
	for i, workers := range []int{1, 2, 3, 8} {
		ps := buildParallel(t, Timing, "ruby.MESI_Two_Level", 3, workers)
		res := ps.Run(0)
		dump := ps.Stats().Dump()
		if i == 0 {
			first, firstDump = res, dump
			continue
		}
		if !reflect.DeepEqual(res, first) {
			t.Errorf("workers=%d: result diverges from workers=1", workers)
		}
		if dump != firstDump {
			t.Errorf("workers=%d: stat dump diverges from workers=1", workers)
		}
	}
}

// TestParallelCoarseWindowsUseThePool is the traffic the worker pool
// exists for: four KVM cores run the same atomic-free program, so they
// stay in lockstep and every window in which they step holds four
// 4096-instruction batches — tens of microseconds each. The scheduler's
// cost gate must hand those windows to the pool (this is the test that
// puts CPU-model code on pool goroutines under -race), and results must
// not notice.
func TestParallelCoarseWindowsUseThePool(t *testing.T) {
	// The scheduler never splits a window over more goroutines than can
	// run at once; give a one-CPU host room for a pool.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	prog := isa.Generate(isa.GenSpec{
		Name:           "kvm-lockstep",
		Seed:           11,
		Iterations:     12_000,
		BodyOps:        40,
		Mix:            isa.Mix{Load: 0.2, Store: 0.1, Branch: 0.1, MulDiv: 0.05},
		FootprintWords: 1 << 10,
		StrideWords:    3,
	})
	var first Result
	var firstDump string
	for i, workers := range []int{1, 2, 4} {
		ps := NewParallelSystem(Config{Model: KVM, Cores: 4}, "classic", mem.ClassicConfig{}, workers)
		for c := 0; c < 4; c++ {
			ps.LoadProgram(c, prog)
		}
		res := ps.Run(0)
		dump := ps.Stats().Dump()
		count := ps.Scheduler().Counters()
		ps.Close()
		if !res.Finished {
			t.Fatalf("workers=%d: run did not finish", workers)
		}
		if i == 0 {
			first, firstDump = res, dump
			if count.PoolWindows != 0 {
				t.Errorf("one worker used the pool: %+v", count)
			}
			continue
		}
		if count.PoolWindows == 0 {
			t.Errorf("workers=%d: no window entered the pool (%+v)", workers, count)
		}
		if !reflect.DeepEqual(res, first) || dump != firstDump {
			t.Errorf("workers=%d: result or stat dump diverges from workers=1", workers)
		}
	}
}
