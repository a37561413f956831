package run

import (
	"encoding/json"
	"fmt"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/workloads"
)

// answer is what a worker and the run layer must agree on for a cell.
type answer struct {
	Outcome     string  `json:"outcome"`
	SimSeconds  float64 `json:"sim_seconds"`
	Insts       uint64  `json:"insts"`
	BootInsts   uint64  `json:"boot_insts"`
	ScriptInsts uint64  `json:"script_insts"`
}

// TestWorkerMatchesRunLayer runs the same cells through the worker
// handlers and through the run layer: boot cells on every CPU model on
// classic and Ruby memory at 1 and 4 cores, GPU cells under both
// allocators, and NPB hack-back at 1 and 2 cores. The worker's answer,
// read back from JSON as the broker carries it, must equal the run's
// Results.
func TestWorkerMatchesRunLayer(t *testing.T) {
	e := newEnv(t)
	worker := func(h func(json.RawMessage) (any, error), job any) answer {
		t.Helper()
		payload, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		out, err := h(payload)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		var a answer
		if err := json.Unmarshal(raw, &a); err != nil {
			t.Fatal(err)
		}
		return a
	}
	launch := func(spec FSSpec) *Run {
		t.Helper()
		r, err := CreateFSRun(e.reg, spec)
		if err != nil {
			t.Fatal(err)
		}
		executeOK(t, r)
		return r
	}
	recorded := func(r *Run) answer {
		res := r.Results
		return answer{res.Outcome, res.SimSeconds, res.Insts,
			uint64(res.Stats["boot_insts"]), uint64(res.Stats["script_insts"])}
	}
	check := func(cell string, got, want answer) {
		t.Helper()
		if got != want {
			t.Errorf("%s: worker %+v, run layer %+v", cell, got, want)
		}
	}

	for _, model := range []cpu.Model{cpu.KVM, cpu.Atomic, cpu.Timing, cpu.O3} {
		for _, mem := range []string{"classic", "ruby.MESI_Two_Level"} {
			for _, cores := range []int{1, 4} {
				cell := fmt.Sprintf("boot %s %s %dc", model, mem, cores)
				want := recorded(launch(e.fsSpec(cell, "configs/run_exit.py", e.bootDisk,
					"cpu="+string(model), "mem_sys="+mem, fmt.Sprintf("num_cpus=%d", cores),
					"boot_type=init", "kernel=5.4.49")))
				got := worker(ExecuteBootJob, BootJob{Kernel: "5.4.49", CPU: string(model), Mem: mem,
					Cores: cores, Boot: "init"})
				check(cell, got, want)
			}
		}
	}

	gpuBin, err := e.reg.Register(artifact.Options{Name: "gem5-gcn3", Typ: "gem5 binary",
		Path: "gem5/build/GCN3_X86/gem5.opt", Content: []byte("gem5.opt v21.0 GCN3_X86"),
		Inputs: []*artifact.Artifact{e.gem5Git}})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range workloads.GPUWorkloadNames()[:3] {
		for _, alloc := range []string{"simple", "dynamic"} {
			cell := "gpu " + app + " " + alloc
			spec := e.fsSpec(cell, "configs/run_gpu.py", e.bootDisk, "app="+app, "reg_alloc="+alloc)
			spec.Gem5Binary, spec.Gem5Artifact = gpuBin.Path, gpuBin
			check(cell, worker(ExecuteGPUJob, GPUJob{App: app, Alloc: alloc}), recorded(launch(spec)))
		}
	}

	disk := npbDisk(t, e)
	for _, cores := range []int{1, 2} {
		cell := fmt.Sprintf("hackback npb cg %dc", cores)
		r := launch(hackSpec(e, disk, cell, "cg", "npb", fmt.Sprint(cores)))
		// The worker restores the checkpoint the run booted and archived.
		_, hash, _ := r.PriorCheckpoint()
		blob, err := e.reg.DB().Files().Get(hash)
		if err != nil {
			t.Fatal(err)
		}
		got := worker(ExecuteHackbackJob, HackbackJob{Benchmark: "cg", Suite: "npb", Cores: cores,
			CPU: string(cpu.Timing), Mem: "classic", CkptHash: hash, Ckpt: blob})
		check(cell, got, recorded(r))
	}
}
