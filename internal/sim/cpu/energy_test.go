package cpu

import (
	"strings"
	"testing"

	"gem5art/internal/energy"
)

// TestEnergyDeterministicAcrossWorkers extends the golden-stats
// contract to the energy model: with the O3/Ruby preset attached, the
// full stat dump — energy formulas included — must be bit-identical at
// 1, 2, and 4 scheduler workers. Energy values are float sums over
// merged counters, so this catches both nondeterministic counter merges
// and any order-dependence in the energy formulas themselves. The
// package runs under -race in CI, so the read-through evaluation is
// also checked for races against the worker pool.
func TestEnergyDeterministicAcrossWorkers(t *testing.T) {
	m, err := energy.PresetFor(string(O3), "ruby.MESI_Two_Level")
	if err != nil {
		t.Fatal(err)
	}
	var golden string
	var goldenJoules float64
	for _, workers := range []int{1, 2, 4} {
		ps := buildParallel(t, O3, "ruby.MESI_Two_Level", 4, workers)
		if unmatched := energy.Attach(ps.Stats(), m); len(unmatched) != 0 {
			t.Fatalf("workers=%d: unmatched counters %v", workers, unmatched)
		}
		res := ps.Run(0)
		if !res.Finished {
			t.Fatalf("workers=%d: run did not finish", workers)
		}
		dump := ps.Stats().Dump()
		joules := ps.Stats().Values()["energy.total_joules"]
		if joules <= 0 {
			t.Fatalf("workers=%d: total joules = %v", workers, joules)
		}
		if workers == 1 {
			golden, goldenJoules = dump, joules
			continue
		}
		if joules != goldenJoules {
			t.Errorf("workers=%d: total joules %v != 1-worker %v", workers, joules, goldenJoules)
		}
		if dump != golden {
			t.Errorf("workers=%d: stat dump diverges from 1-worker dump", workers)
		}
	}
	if !strings.Contains(golden, "energy.total_joules") ||
		!strings.Contains(golden, "energy.core.joules") {
		t.Fatalf("energy stats missing from dump:\n%s", golden)
	}
}
