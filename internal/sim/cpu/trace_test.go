package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"gem5art/internal/sim"
	"gem5art/internal/sim/isa"
)

// traceProgram is core i's program for TestTraceMatchesUntraced: every
// instruction class, with atomics on a region all cores share, and
// sparse loads over a 512 KiB footprint, so that O3 runs stretches of
// plain instructions under an outstanding miss into its ROB-window
// stall.
func traceProgram(i int) *isa.Program {
	return isa.Generate(isa.GenSpec{Name: "traced", Seed: 7300 + int64(i), Iterations: 40, BodyOps: 80,
		Mix:            isa.Mix{Load: 0.05, Store: 0.02, Atomic: 0.01, MulDiv: 0.05, Branch: 0.1},
		FootprintWords: 1 << 16, StrideWords: 17, SharedWords: 8})
}

// TestTraceMatchesUntraced: a traced run executes one instruction per
// isa.Run and an untraced one batches, so tracing without a limit must
// leave the result and every CPU and memory statistic as they are
// untraced, on every model, memory system and core count, and record
// exactly one trace record per committed instruction, per core.
func TestTraceMatchesUntraced(t *testing.T) {
	type outcome struct {
		res      Result
		cpuStats map[string]float64
		memStats map[string]float64
		records  []uint64 // per core
	}
	run := func(model Model, kind string, cores int, traced bool) outcome {
		m := newMem(kind, cores)
		sys := NewSystem(Config{Model: model, Cores: cores}, m)
		out := outcome{records: make([]uint64, cores)}
		if traced {
			sys.SetTrace(func(core int, _ sim.Tick, _ int64, _ isa.Inst) { out.records[core]++ }, 0)
		}
		for i := 0; i < cores; i++ {
			sys.LoadProgram(i, traceProgram(i))
		}
		out.res = sys.Run(0)
		out.cpuStats, out.memStats = sys.Stats().Values(), m.Stats().Values()
		sys.Release()
		return out
	}
	for _, model := range AllModels {
		for _, kind := range memKinds {
			for _, cores := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/%d", model, kind, cores), func(t *testing.T) {
					plain, traced := run(model, kind, cores, false), run(model, kind, cores, true)
					if !plain.res.Finished {
						t.Fatal("the untraced run did not finish")
					}
					if !reflect.DeepEqual(traced.res, plain.res) {
						t.Errorf("result traced %+v, untraced %+v", traced.res, plain.res)
					}
					if !reflect.DeepEqual(traced.cpuStats, plain.cpuStats) {
						t.Errorf("CPU stats traced %v, untraced %v", traced.cpuStats, plain.cpuStats)
					}
					if !reflect.DeepEqual(traced.memStats, plain.memStats) {
						t.Errorf("memory stats traced %v, untraced %v", traced.memStats, plain.memStats)
					}
					if !reflect.DeepEqual(traced.records, plain.res.InstsPer) {
						t.Errorf("trace records per core %v, committed %v", traced.records, plain.res.InstsPer)
					}
				})
			}
		}
	}
}
