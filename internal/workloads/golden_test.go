package workloads

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gem5art/internal/energy"
	"gem5art/internal/sim"
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

func hashStats(w io.Writer, groups ...map[string]float64) {
	for _, values := range groups {
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %s=%v\n", name, values[name])
		}
	}
}

// goldenCells returns the golden's cells in order, with how many are
// boots and how many PARSEC runs. Each cell simulates its configuration,
// writes its record to w and releases its system.
func goldenCells(t *testing.T) (cells []func(w io.Writer), boots, parsec int) {
	for _, s := range kernel.Sweep() {
		if kernel.Expected(s) == kernel.Unsupported {
			continue
		}
		model, err := energy.PresetFor(string(s.CPU), s.Mem)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, func(w io.Writer) {
			r := kernel.BootWith(s, 0, kernel.BootOptions{Energy: model})
			fmt.Fprintf(w, "%s|%s|%d|%d\n", s, r.Outcome, r.Insts, r.SimTicks)
			hashStats(w, r.Stats)
		})
		boots++
	}
	for _, os := range OSImages {
		for _, app := range ParsecApps() {
			for _, n := range ParsecCoreCounts {
				cells = append(cells, func(w io.Writer) {
					system, m := parsecSystem(app, os, n)
					r := system.Run(0)
					fmt.Fprintf(w, "parsec %s %s %dc|%v|%d|%d\n", app.Name, os.Name, n, r.Finished, r.Insts, r.SimTicks)
					hashStats(w, system.Stats().Values(), m.Stats().Values())
					system.Release()
				})
				parsec++
			}
		}
	}
	return cells, boots, parsec
}

// TestMonolithicGolden pins the monolithic engine's results on the
// Figure 8 boot sweep and the PARSEC study against the constant above.
// Boots carry their stat map through BootOptions.Energy, so the energy
// preset's formulas, which read the memory counters, are hashed too.
// A second pass runs the cells in reverse order, so every cell runs on
// caches and pages a different cell released, and must hash the same.
func TestMonolithicGolden(t *testing.T) {
	cells, boots, parsec := goldenCells(t)
	if boots != 340 || parsec != 60 {
		t.Fatalf("golden covers %d boot and %d PARSEC cells, want 340 and 60", boots, parsec)
	}
	h := sha256.New()
	for _, cell := range cells {
		cell(h)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != monolithicGolden {
		t.Errorf("monolithic digest %s, want %s", got, monolithicGolden)
	}
	records := make([]bytes.Buffer, len(cells))
	for i := len(cells) - 1; i >= 0; i-- {
		cells[i](&records[i])
	}
	h.Reset()
	for i := range records {
		h.Write(records[i].Bytes())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != monolithicGolden {
		t.Errorf("monolithic digest in reverse order %s, want %s", got, monolithicGolden)
	}
}

// TestConcurrentRunsMatchSerial runs a mixed list of boots (both
// engines, every memory system, 1 to 8 cores) and PARSEC runs serially,
// then again from 4 goroutines, and requires every result to match.
// Systems built and released at once share the memory pools, so under
// make race this checks the pools too.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	var cells []func() string
	for i, s := range kernel.Sweep() {
		if i%11 != 0 || kernel.Expected(s) == kernel.Unsupported {
			continue
		}
		model, err := energy.PresetFor(string(s.CPU), s.Mem)
		if err != nil {
			t.Fatal(err)
		}
		opts := kernel.BootOptions{Energy: model}
		if i%2 == 1 {
			opts.Workers = 1
		}
		cells = append(cells, func() string {
			r := kernel.BootWith(s, 0, opts)
			r.Sched = sim.Counters{} // host diagnostics, not results
			return fmt.Sprintf("%+v", r)
		})
	}
	for _, app := range ParsecApps()[:3] {
		for _, n := range ParsecCoreCounts {
			cells = append(cells, func() string {
				m, err := ExecParsec(app, Ubuntu2004, n)
				return fmt.Sprintf("%+v %v", m, err)
			})
		}
	}
	serial := make([]string, len(cells))
	for i, cell := range cells {
		serial[i] = cell()
	}
	got := make([]string, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				got[i] = cells[i]()
			}
		}()
	}
	wg.Wait()
	for i := range cells {
		if got[i] != serial[i] {
			t.Errorf("cell %d differs when run concurrently:\n  serial: %s\n  concurrent: %s", i, serial[i], got[i])
		}
	}
}
