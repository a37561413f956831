package cpu

import (
	"reflect"
	"testing"

	"gem5art/internal/sim"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// fuzzBudget bounds each fuzzed run in simulated time, so a program
// that never exits still ends; KVM's first batch runs regardless.
const fuzzBudget sim.Tick = 1_000_000

// FuzzDecodeRun is the isa decoder's fuzz target, kept here because it
// runs what it decodes on the CPU models. It decodes arbitrary bytes as
// an executable, as the run layer does with a fetched binary; a program
// Decode and Validate accept must survive Encode and Decode unchanged,
// and then run on two cores under every model over every memory system,
// on both engines, within fuzzBudget, without a panic. The committed
// seeds under testdata/fuzz/FuzzDecodeRun are the cases of
// isa.TestDecodeRejectsCorruption and the valid program they cut, a
// program of one instruction of every op in the shape of
// isa.TestInstEncodeDecodeProperty, and a load, store and atomic at a
// negative address.
func FuzzDecodeRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := isa.Decode(data)
		if err != nil || isa.Validate(p) != nil {
			return
		}
		again, err := isa.Decode(isa.Encode(p))
		if err != nil {
			t.Fatalf("redecode: %v", err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip changed the program:\n got %+v\nwant %+v", again, p)
		}
		const cores = 2
		for _, model := range AllModels {
			for _, kind := range memKinds {
				mono := NewSystem(Config{Model: model, Cores: cores}, newMem(kind, cores))
				par := NewParallelSystem(Config{Model: model, Cores: cores}, kind, mem.ClassicConfig{}, 1)
				for c := 0; c < cores; c++ {
					mono.LoadProgram(c, p)
					par.LoadProgram(c, p)
				}
				mono.Run(fuzzBudget)
				par.Run(fuzzBudget)
				par.Close()
			}
		}
	})
}
