package cpu

import (
	"testing"

	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// bootLike is core 0's program of a 4.19 kernel-only boot (the shape of
// kernel.bootWork, which this package cannot import): loads, stores,
// branches and a few atomics over a 256 KiB footprint.
var bootLike = isa.Generate(isa.GenSpec{
	Name:           "boot-like",
	Seed:           7000,
	Iterations:     300,
	BodyOps:        48,
	Mix:            isa.Mix{Load: 0.25, Store: 0.12, Branch: 0.15, MulDiv: 0.02, Atomic: 0.02},
	FootprintWords: 1 << 15,
	StrideWords:    7,
	SharedWords:    16,
})

// BenchmarkModels boots bootLike once per op on a fresh single-core
// classic system under each CPU model, releasing it as a finished run
// does, and reports simulated MIPS, the per-model unit of the sim
// layer, beside ns/op and the recycled B/op and allocs/op.
func BenchmarkModels(b *testing.B) {
	for _, model := range AllModels {
		b.Run(string(model), func(b *testing.B) {
			b.ReportAllocs()
			var insts uint64
			for i := 0; i < b.N; i++ {
				sys := NewSystem(Config{Model: model}, mem.NewClassic(1, mem.ClassicConfig{}))
				sys.LoadProgram(0, bootLike)
				r := sys.Run(0)
				if !r.Finished {
					b.Fatalf("%s did not finish", model)
				}
				insts += r.Insts
				sys.Release()
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}
