package gpu_test

import (
	"math"
	"math/rand"
	"testing"

	"gem5art/internal/sim/gpu"
	"gem5art/internal/workloads"
)

// sameStream reports the first draw at which the package generator and
// math/rand, both seeded with seed, differ, or -1.
func sameStream(seed int64, draws int) int {
	got, want := gpu.WaveStream(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < draws; i++ {
		if math.Float64bits(got()) != math.Float64bits(want.Float64()) {
			return i
		}
	}
	return -1
}

// FuzzWaveRNG is differential: for any seed, the wave generator's first
// draws values equal math/rand's, bit for bit, past the 607-word wrap of
// the state. The seeds are in testdata/fuzz.
func FuzzWaveRNG(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		if i := sameStream(seed, int(draws)); i >= 0 {
			t.Fatalf("seed %d: draw %d differs from math/rand", seed, i)
		}
	})
}

// TestWaveRNGMatchesMathRand covers the seeds math/rand normalises
// specially and every seed a Table IV wave is placed with.
func TestWaveRNGMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, -1, 1, 89482311, m, -m, 2 * m, -2 * m, m + 1, -m - 1,
		1 << 40, -1 << 40, math.MaxInt64, math.MinInt64}
	for _, s := range seeds {
		if i := sameStream(s, 2000); i >= 0 {
			t.Errorf("seed %d: draw %d differs from math/rand", s, i)
		}
	}
	n := 0
	for _, w := range workloads.GPUWorkloads() {
		k := w.Kernel
		for wg := 0; wg < k.WGs; wg++ {
			for wave := 0; wave < k.WavesPerWG; wave++ {
				s := k.Seed + 1000*int64(wg) + int64(wave)
				if i := sameStream(s, 700); i >= 0 {
					t.Fatalf("%s wave %d.%d (seed %d): draw %d differs from math/rand",
						k.Name, wg, wave, s, i)
				}
				n++
			}
		}
	}
	t.Logf("%d Table IV wave seeds", n)
}
