package energy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"gem5art/internal/sim/gpu"
	"gem5art/internal/workloads"
)

// evaluateGolden is the SHA-256 over Evaluate's output on the flat
// counter maps the run layer evaluates: the GPU preset over the 58
// Table IV results at the 1 GHz shader clock, then every CPU preset
// over the 60 PARSEC metric maps at the default clock. Each cell writes
// one header line and its energy map sorted by name, so a different
// hash means recorded joules moved.
const evaluateGolden = "54f2dde852714c95ca5d82ecef447f80be33ad484644aedc210a40563595895e"

func hashValues(w io.Writer, values map[string]float64) {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %s=%v\n", name, values[name])
	}
}

func TestEvaluateGolden(t *testing.T) {
	h := sha256.New()
	evaluate := func(cell string, m *Model, values map[string]float64, secs float64, freqHz uint64) {
		out, err := Evaluate(m, values, secs, freqHz)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %s\n", cell, m.Name)
		hashValues(h, out)
	}

	gpuModel, _ := Preset("gpu")
	gpuCells := 0
	for _, w := range workloads.GPUWorkloads() {
		for _, alloc := range []gpu.Allocator{gpu.Simple, gpu.Dynamic} {
			r, err := gpu.Run(gpu.Config{}, w.Kernel, alloc)
			if err != nil {
				t.Fatal(err)
			}
			evaluate(fmt.Sprintf("gpu %s %s", w.Kernel.Name, alloc), gpuModel, map[string]float64{
				"shader_ticks":  float64(r.Cycles),
				"gpu_ops":       float64(r.Ops),
				"mem_accesses":  float64(r.MemAccesses),
				"atomic_ops":    float64(r.AtomicOps),
				"avg_occupancy": r.AvgOccupancy,
				"dep_stalls":    float64(r.DepStalls),
			}, float64(r.Cycles)/1e9, 1_000_000_000)
			gpuCells++
		}
	}

	var cpuModels []*Model
	for _, name := range PresetNames() {
		if name != "gpu" {
			m, _ := Preset(name)
			cpuModels = append(cpuModels, m)
		}
	}
	parsecCells := 0
	for _, os := range workloads.OSImages {
		for _, app := range workloads.ParsecApps() {
			for _, n := range workloads.ParsecCoreCounts {
				m, err := workloads.ExecParsec(app, os, n)
				if err != nil {
					t.Fatal(err)
				}
				values := map[string]float64{
					"sim_seconds": m.SimSeconds,
					"sim_insts":   float64(m.Insts),
					"ipc":         m.IPC,
				}
				for _, model := range cpuModels {
					evaluate(fmt.Sprintf("parsec %s %s %dc", app.Name, os.Name, n), model, values, m.SimSeconds, 0)
				}
				parsecCells++
			}
		}
	}
	if gpuCells != 58 || parsecCells != 60 || len(cpuModels) != 8 {
		t.Fatalf("golden covers %d GPU cells, %d PARSEC cells and %d CPU presets, want 58, 60 and 8",
			gpuCells, parsecCells, len(cpuModels))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != evaluateGolden {
		t.Errorf("Evaluate digest %s, want %s", got, evaluateGolden)
	}
}
