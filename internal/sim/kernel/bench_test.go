package kernel

import (
	"testing"

	"gem5art/internal/sim/cpu"
)

// BenchmarkMulticoreBoot boots one 4-core kernel-only 4.19 cell per op
// for each of TimingSimpleCPU and O3CPU on each Ruby protocol: the
// multi-core boot path, which cpu.BenchmarkModels (one classic core)
// never reaches. It reports simulated MIPS beside ns/op, B/op and
// allocs/op.
func BenchmarkMulticoreBoot(b *testing.B) {
	for _, model := range []cpu.Model{cpu.Timing, cpu.O3} {
		for _, memory := range []string{"ruby.MI_example", "ruby.MESI_Two_Level"} {
			s := Spec{Kernel: "4.19.83", CPU: model, Mem: memory, Cores: 4, Boot: BootInit}
			b.Run(string(model)+"/"+memory, func(b *testing.B) {
				b.ReportAllocs()
				var insts uint64
				for i := 0; i < b.N; i++ {
					r := Boot(s, 0)
					if r.Outcome == Unsupported || r.Insts == 0 {
						b.Fatalf("%s: %s after %d insts", s, r.Outcome, r.Insts)
					}
					insts += r.Insts
				}
				b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MIPS")
			})
		}
	}
}
