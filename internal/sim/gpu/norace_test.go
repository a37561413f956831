//go:build !race

package gpu_test

const raceEnabled = false
