package run

import (
	"fmt"

	"gem5art/internal/energy"
	"gem5art/internal/sim/cpu"
)

// The run layer's energy support: FSSpec.Energy names a model (a
// built-in preset, "auto", or a JSON model file); the handlers resolve
// it against the run's own cpu/mem_sys parameters, attach it to the
// simulated system (or evaluate it over the result counters for
// handlers whose metrics only survive as flat maps), and the energy.*
// statistics land in the run's stat archive and as energy_joules /
// energy_watts / energy_edp fields on the run document.

// defaultCPUModel mirrors the cpu-parameter default each handler
// applies, so "auto" resolves to the same preset the simulation will
// actually run with.
func (r *Run) defaultCPUModel() string {
	switch r.Spec.RunScript {
	case "configs/run_exit.py":
		return string(cpu.KVM)
	default:
		return string(cpu.Timing)
	}
}

// energyModel resolves the run's energy spec, or (nil, nil) when energy
// accounting is disabled. GPU runs resolve "auto" to the GPU preset;
// everything else composes from the run's cpu and mem_sys parameters.
func (r *Run) energyModel() (*energy.Model, error) {
	spec := r.Spec.Energy
	if spec == "" {
		return nil, nil
	}
	if spec == "auto" && r.Spec.RunScript == "configs/run_gpu.py" {
		m, _ := energy.Preset("gpu")
		return m, nil
	}
	m, err := energy.Resolve(spec, r.Param("cpu", r.defaultCPUModel()), r.Param("mem_sys", "classic"))
	if err != nil {
		return nil, fmt.Errorf("run: %s: %w", r.Spec.Name, err)
	}
	return m, nil
}

// evaluateEnergy folds the model's energy statistics into a finished
// result's stat map — the path for handlers whose workloads report flat
// metrics rather than live stat groups (PARSEC, GPU). freqHz is the
// leakage clock, as in energy.Evaluate.
func evaluateEnergy(res *Results, m *energy.Model, freqHz uint64) error {
	if m == nil || res == nil {
		return nil
	}
	vals, err := energy.Evaluate(m, res.Stats, res.SimSeconds, freqHz)
	if err != nil {
		return err
	}
	if res.Stats == nil {
		res.Stats = make(map[string]float64, len(vals))
	}
	for k, v := range vals {
		res.Stats[k] = v
	}
	return nil
}
