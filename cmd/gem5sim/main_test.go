package main

import (
	"strings"
	"testing"
)

// TestEnergyCheckDescribesTheEngineItBoots: the check attaches to the
// system a boot with the same flags would run, whose classic memory
// system has no atomics counter, and says so.
func TestEnergyCheckDescribesTheEngineItBoots(t *testing.T) {
	var out strings.Builder
	if err := checkEnergy(&out, "auto", "O3CPU", "classic", 1); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"system.mem.atomics", "(not provided by O3CPU/classic; contributes 0)",
		"1 counter(s) unmatched: dram:system.mem.atomics"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("output lacks %q:\n%s", w, out.String())
		}
	}
}
