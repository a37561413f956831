package main

import (
	"fmt"
	"time"

	"gem5art/internal/energy"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/mem"
)

// The energy suite verifies that energy accounting is free where it
// must be — on the simulation hot path. The models register read-through
// Formula stats, so attaching one adds registration work up front and
// evaluation work at dump time, but nothing per event. The suite runs
// parsim's fine configuration (8-core O3 on Ruby MESI_Two_Level) with and
// without the matching preset attached; the with-energy wall time must
// stay within a 2% budget of the baseline. It also re-checks the
// determinism contract on the energy totals themselves: total joules
// and the full energy stat block must be bit-identical at 1, 2, and 4
// scheduler workers.

// energyRun is one (workers, with/without) measurement pair.
type energyRun struct {
	Workers      int     `json:"workers"`
	BaselineNs   int64   `json:"baseline_ns"`
	WithEnergyNs int64   `json:"with_energy_ns"`
	OverheadPct  float64 `json:"overhead_pct"`
	TotalJoules  float64 `json:"total_joules"`
	AvgWatts     float64 `json:"avg_watts"`
	EDP          float64 `json:"edp"`
}

// energyResult is the energy benchmark report.
type energyResult struct {
	CPUModel      string      `json:"cpu_model"`
	MemSys        string      `json:"mem_sys"`
	Cores         int         `json:"cores"`
	Model         string      `json:"energy_model"`
	ModelSalt     string      `json:"energy_model_salt"`
	Iterations    int64       `json:"iterations_per_core"`
	Reps          int         `json:"reps_per_point"`
	Runs          []energyRun `json:"runs"`
	OverheadPct   float64     `json:"overhead_pct"` // at the primary point (1 worker)
	ThresholdPct  float64     `json:"threshold_pct"`
	Deterministic bool        `json:"deterministic"` // energy totals identical across workers
	Pass          bool        `json:"pass"`
}

// energyPoint builds a fresh parsim system, optionally attaches the
// model, and times one full run. Returns the wall time and the energy
// block of the final stat values (empty when no model is attached).
func energyPoint(workers, cores int, iters int64, m *energy.Model) (time.Duration, map[string]float64) {
	ps := cpu.NewParallelSystem(cpu.Config{Model: cpu.O3, Cores: cores},
		"ruby.MESI_Two_Level", mem.ClassicConfig{}, workers)
	defer ps.Close()
	if m != nil {
		energy.Attach(ps.Stats(), m, energy.AttachOptions{})
	}
	for c := 0; c < cores; c++ {
		ps.LoadProgram(c, parsimWorkload(c, iters))
	}
	start := time.Now()
	ps.Run(0)
	wall := time.Since(start)
	ev := map[string]float64{}
	if m != nil {
		for k, v := range ps.Stats().Values() {
			if len(k) > 7 && k[:7] == "energy." {
				ev[k] = v
			}
		}
	}
	return wall, ev
}

// energyEqual reports whether two energy stat blocks are bit-identical.
func energyEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func runEnergyBench(out string, iters int64, reps int, threshold float64) bool {
	const cores = 8
	workerCounts := []int{1, 2, 4}
	m, err := energy.PresetFor(string(cpu.O3), "ruby.MESI_Two_Level")
	if err != nil {
		fmt.Println("energy: preset:", err)
		return false
	}
	fmt.Printf("energy: %d-core O3/MESI_Two_Level, model %s, %d iterations/core\n",
		cores, m.Name, iters)

	r := energyResult{
		CPUModel:      string(cpu.O3),
		MemSys:        "ruby.MESI_Two_Level",
		Cores:         cores,
		Model:         m.Name,
		ModelSalt:     m.Salt(),
		Iterations:    iters,
		Reps:          reps,
		ThresholdPct:  threshold,
		Deterministic: true,
	}

	// Warmup: fault in code paths and let the allocator settle before
	// anything is timed.
	energyPoint(1, cores, iters/4+1, m)

	var baseEnergy map[string]float64
	for i, w := range workerCounts {
		var bestBase, bestWith time.Duration
		var ev map[string]float64
		for rep := 0; rep < reps; rep++ {
			// Interleave baseline and instrumented measurements so drift in
			// host load hits both sides equally.
			wb, _ := energyPoint(w, cores, iters, nil)
			we, rev := energyPoint(w, cores, iters, m)
			if bestBase == 0 || wb < bestBase {
				bestBase = wb
			}
			if bestWith == 0 || we < bestWith {
				bestWith = we
			}
			ev = rev
		}
		overhead := (float64(bestWith) - float64(bestBase)) / float64(bestBase) * 100
		run := energyRun{
			Workers:      w,
			BaselineNs:   bestBase.Nanoseconds(),
			WithEnergyNs: bestWith.Nanoseconds(),
			OverheadPct:  overhead,
			TotalJoules:  ev["energy.total_joules"],
			AvgWatts:     ev["energy.avg_watts"],
			EDP:          ev["energy.edp"],
		}
		r.Runs = append(r.Runs, run)
		if i == 0 {
			baseEnergy = ev
			r.OverheadPct = overhead
		} else if !energyEqual(baseEnergy, ev) {
			r.Deterministic = false
		}
		fmt.Printf("  workers=%d: base %10v  with-energy %10v  overhead %+.2f%%  total %.6e J\n",
			w, bestBase, bestWith, overhead, run.TotalJoules)
	}

	r.Pass = r.Deterministic && r.OverheadPct < threshold
	writeReport(out, r)
	fmt.Printf("energy totals deterministic across workers: %s\n", verdict(r.Deterministic))
	fmt.Printf("overhead at 1 worker: %+.2f%% (budget %.1f%%) -> %s\n",
		r.OverheadPct, threshold, verdict(r.OverheadPct < threshold))
	fmt.Printf("report written to %s\n", out)
	return r.Pass
}
