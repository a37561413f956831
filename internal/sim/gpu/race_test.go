//go:build race

package gpu_test

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given on purpose, so pooled allocations are not countable.
const raceEnabled = true
