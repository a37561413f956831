package simcache

import "testing"

var benchKey string

// BenchmarkKey derives one run key over a boot cell's input closure:
// five artifact hashes and five parameters, as every launched run does.
func BenchmarkKey(b *testing.B) {
	in := KeyInputs{
		Kind: "fs:configs/run_exit.py",
		Artifacts: []string{"0f3c2a9d6b1e4f7a8c5d2e9b3a6f1c4d", "7e1b4c8f2a5d9e3c6b0f4a7d1e8c2b5f",
			"c4a7e1d8b2f5c9a3e6d0b4f7a1c8e2d5", "5b8e2d6a9c3f7b1e4a8d2c6f0b3e7a9d", "a2d6f9c3e7b1a4d8f2c5e9b3d7a0f6c1"},
		Params: []string{"kernel=5.4.49", "cpu=O3CPU", "mem_sys=classic", "num_cpus=4", "boot_type=init"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchKey = in.Key()
	}
}
