package main

import (
	"strings"
	"testing"
)

// TestEnergyCheckDescribesTheEngineItBoots: without -parallel the check
// attaches to the monolithic engine, whose classic memory system has
// no atomics counter, and says so; with -parallel it attaches to the
// component engine, whose controller counts atomics.
func TestEnergyCheckDescribesTheEngineItBoots(t *testing.T) {
	for _, tc := range []struct {
		parallel int
		want     []string
	}{
		{0, []string{"engine: monolithic",
			"system.mem.atomics", "(not provided by O3CPU/classic; contributes 0)",
			"1 counter(s) unmatched: dram:system.mem.atomics"}},
		{1, []string{"engine: parallel", "all counters resolve against this configuration"}},
	} {
		var out strings.Builder
		if err := checkEnergy(&out, "auto", "O3CPU", "classic", 1, tc.parallel); err != nil {
			t.Fatalf("-parallel %d: %v", tc.parallel, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("-parallel %d: output lacks %q:\n%s", tc.parallel, w, out.String())
			}
		}
	}
}
