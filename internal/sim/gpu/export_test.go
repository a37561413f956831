package gpu

// WaveStream returns the package generator seeded with seed, for the
// differential tests against math/rand in package gpu_test.
func WaveStream(seed int64) func() float64 {
	g := new(waveRNG)
	g.seed(seed)
	return g.Float64
}
