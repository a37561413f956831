//go:build !race

package kernel

const raceEnabled = false
