package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"gem5art/internal/energy"
	"gem5art/internal/sim/kernel"
)

// monolithicGolden is the SHA-256 over every supported boot cell of
// kernel.Sweep() (340) and every PARSEC cell (60) on the monolithic
// engine: one "cell|outcome|insts|ticks" line per cell followed by its
// full stat map, sorted by name. It pins the CPU models, the memory
// systems and the event queue together, so an optimisation of any of
// them that leaves it alone is bit-identical; a different hash means
// simulated results moved.
const monolithicGolden = "96a150450054defb789ce2d0a97c545c1e3df1cff1aed052d6e57811b324aa88"

func hashStats(h hash.Hash, groups ...map[string]float64) {
	for _, values := range groups {
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "  %s=%v\n", name, values[name])
		}
	}
}

// TestMonolithicGolden pins the monolithic engine's results on the
// Figure 8 boot sweep and the PARSEC study against the constant above.
// Boots carry their stat map through BootOptions.Energy, so the energy
// preset's formulas, which read the memory counters, are hashed too.
func TestMonolithicGolden(t *testing.T) {
	h := sha256.New()
	boots := 0
	for _, s := range kernel.Sweep() {
		if kernel.Expected(s) == kernel.Unsupported {
			continue
		}
		model, err := energy.PresetFor(string(s.CPU), s.Mem)
		if err != nil {
			t.Fatal(err)
		}
		r := kernel.BootWith(s, 0, kernel.BootOptions{Energy: model})
		fmt.Fprintf(h, "%s|%s|%d|%d\n", s, r.Outcome, r.Insts, r.SimTicks)
		hashStats(h, r.Stats)
		boots++
	}
	parsec := 0
	for _, os := range OSImages {
		for _, app := range ParsecApps() {
			for _, n := range ParsecCoreCounts {
				system, m := parsecSystem(app, os, n)
				r := system.Run(0)
				fmt.Fprintf(h, "parsec %s %s %dc|%v|%d|%d\n", app.Name, os.Name, n, r.Finished, r.Insts, r.SimTicks)
				hashStats(h, system.Stats().Values(), m.Stats().Values())
				parsec++
			}
		}
	}
	if boots != 340 || parsec != 60 {
		t.Fatalf("golden covers %d boot and %d PARSEC cells, want 340 and 60", boots, parsec)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != monolithicGolden {
		t.Errorf("monolithic digest %s, want %s", got, monolithicGolden)
	}
}
