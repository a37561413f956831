package run

import (
	"fmt"

	"gem5art/internal/energy"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/mem"
	"gem5art/internal/simcache"
	"gem5art/internal/workloads"
)

// runHackBack implements the hack-back resource's two-phase workflow
// (§V Table I): boot the system with the fast KVM CPU, take an m5
// checkpoint, then restore the booted memory image into a detailed
// system and execute the host-provided script (here: a benchmark from
// the disk image). The checkpoint itself is archived in the database
// file store under the run's boot-equivalence class, so the expensive
// boot is paid once per class — across retries of this run and across
// every sibling run sharing the same kernel, disk image, core count,
// and phase-1 memory configuration.
func runHackBack(r *Run) (*Results, error) {
	img, err := loadImage(r)
	if err != nil {
		return nil, err
	}
	cores, err := intParam(r, "num_cpus", 1)
	if err != nil {
		return nil, err
	}
	class := simcache.BootClass{
		KernelHash: r.Spec.LinuxBinaryArtifact.Hash,
		DiskHash:   r.Spec.DiskImageArtifact.Hash,
		Cores:      cores,
		// Phase 1 always boots on the classic memory system; the detailed
		// phase-2 memory (mem_sys param) does not affect the boot image.
		Mem: "classic",
	}
	classKey := class.Key()

	// Phase 1: fast boot to the checkpoint — unless someone already paid
	// for this boot class's boot.
	var ck *cpu.Checkpoint
	var ckptHash, resumedFrom string
	var sharedBoot bool
	var bootInsts uint64
	// A prior attempt of this same run may have archived a checkpoint;
	// it is only trustworthy if it was taken under the same boot class —
	// same kernel and disk identity, core count, and phase-1 memory.
	if prior, hash, priorClass := r.PriorCheckpoint(); prior != nil &&
		priorClass == classKey && len(prior.Cores) == cores {
		ck, ckptHash, resumedFrom = prior, hash, hash
		for _, c := range prior.Cores {
			bootInsts += c.Insts
		}
	}
	// Boot-class cache: the first run in the class boots (concurrent
	// siblings coalesce onto it via singleflight), everyone else
	// restores the archived class checkpoint.
	if ck == nil {
		if cache := r.cacheRef(); cache != nil {
			blob, hash, shared, err := cache.BootOnce(class, "bootclass/"+classKey+"/cpt.1",
				func() ([]byte, error) {
					booted, _, err := hackBoot(cores)
					if err != nil {
						return nil, err
					}
					return booted.Serialize(), nil
				})
			if err != nil {
				return nil, err
			}
			if parsed, perr := cpu.ParseCheckpoint(blob); perr == nil {
				ck, ckptHash, sharedBoot = parsed, hash, shared
				for _, c := range parsed.Cores {
					bootInsts += c.Insts
				}
				if hash != "" { // archive may have been skipped (low disk, degraded store)
					r.RecordCheckpoint(hash, classKey)
				}
			}
		}
	}
	if ck == nil {
		booted, insts, err := hackBoot(cores)
		if err != nil {
			return nil, err
		}
		ck, bootInsts = booted, insts
		// Best-effort archive: a degraded store costs the checkpoint copy,
		// not the run.
		if h, err := r.reg.DB().Files().Put(r.Spec.Output+"/cpt.1", ck.Serialize()); err == nil {
			ckptHash = h
			r.RecordCheckpoint(ckptHash, classKey)
		}
	}
	if err := r.faultPoint("run.hackback.phase2"); err != nil {
		return nil, err
	}

	// Phase 2: restore the booted memory into a detailed system and run
	// the requested script/benchmark.
	bench := r.Param("benchmark", "boot-exit")
	suite := r.Param("suite", "boot-exit")
	bin, err := img.ReadFile("/benchmarks/" + suite + "/" + bench)
	if err != nil {
		return nil, err
	}
	prog, err := decodeProgram(bin)
	if err != nil {
		return nil, err
	}
	model := cpu.Model(r.Param("cpu", string(cpu.Timing)))
	memKind := r.Param("mem_sys", "classic")
	emodel, err := r.energyModel()
	if err != nil {
		return nil, err
	}
	var res cpu.Result
	// Energy accounts the detailed phase-2 system only: the fast KVM
	// boot is shared across the whole class, so charging it to one run
	// would make identical scripts report different joules depending on
	// who happened to pay for the boot.
	var detStats map[string]float64
	if r.Spec.Parallel > 0 {
		if err := validMemKind(memKind); err != nil {
			return nil, err
		}
		detailed := cpu.NewParallelSystem(cpu.Config{Model: model, Cores: cores},
			memKind, mem.ClassicConfig{}, r.Spec.Parallel)
		defer detailed.Close()
		if emodel != nil {
			energy.Attach(detailed.Stats(), emodel, energy.AttachOptions{})
		}
		for c := 0; c < cores; c++ {
			detailed.LoadProgram(c, prog)
		}
		// Carry the booted memory image over; the script starts at its own
		// entry point, so core state resets rather than restoring.
		if err := detailed.LoadMemImage(ck.Mem); err != nil {
			return nil, err
		}
		stopWatch := watchSim(r.ID, detailed.Scheduler(), r.stallDeadline())
		res = detailed.Run(sim.TicksPerSecond)
		if serr := stopWatch(); serr != nil && !res.Finished {
			return nil, serr
		}
		if emodel != nil {
			detStats = detailed.Stats().Values()
		}
	} else {
		detMem, err := buildMemParam(memKind, cores)
		if err != nil {
			return nil, err
		}
		detailed := cpu.NewSystem(cpu.Config{Model: model, Cores: cores}, detMem)
		if emodel != nil {
			energy.Attach(detailed.Stats(), emodel, energy.AttachOptions{}, detMem.Stats())
		}
		for c := 0; c < cores; c++ {
			detailed.LoadProgram(c, prog)
		}
		if err := detMem.Store().LoadSnapshot(ck.Mem); err != nil {
			return nil, err
		}
		res = detailed.Run(sim.TicksPerSecond)
		if emodel != nil {
			detStats = detailed.Stats().Values()
		}
	}
	outcome := "success"
	if !res.Finished {
		outcome = "timeout"
	}
	console := fmt.Sprintf("m5 checkpoint (archived %s)\nrestored; script %s complete\nm5 exit",
		shortHash(ckptHash), bench)
	switch {
	case resumedFrom != "":
		console = fmt.Sprintf("resumed from checkpoint %s (boot skipped)\nscript %s complete\nm5 exit",
			shortHash(resumedFrom), bench)
	case sharedBoot:
		console = fmt.Sprintf("restored boot-class checkpoint %s (boot skipped)\nscript %s complete\nm5 exit",
			shortHash(ckptHash), bench)
	}
	stats := map[string]float64{
		"boot_insts":   float64(bootInsts),
		"script_insts": float64(res.Insts),
		"sim_seconds":  res.SimTicks.Seconds(),
	}
	for k, v := range detStats {
		stats[k] = v
	}
	return &Results{
		Outcome:     outcome,
		SimSeconds:  res.SimTicks.Seconds(),
		Insts:       bootInsts + res.Insts,
		Stats:       stats,
		Console:     console,
		ResumedFrom: resumedFrom,
		BootClass:   classKey,
		SharedBoot:  sharedBoot,
	}, nil
}

// hackBoot performs the phase-1 fast boot: KVM cores on the classic
// memory system running the boot-exit program to completion. Returns
// the checkpoint and the instructions the boot executed.
func hackBoot(cores int) (*cpu.Checkpoint, uint64, error) {
	bootProg := workloads.BootExitProgram()
	fastMem, err := buildMemParam("classic", cores)
	if err != nil {
		return nil, 0, err
	}
	fast := cpu.NewSystem(cpu.Config{Model: cpu.KVM, Cores: cores}, fastMem)
	for c := 0; c < cores; c++ {
		fast.LoadProgram(c, bootProg)
	}
	bootRes := fast.Run(sim.TicksPerSecond)
	if !bootRes.Finished {
		return nil, 0, fmt.Errorf("run: hack-back boot did not finish")
	}
	return fast.SaveCheckpoint(), bootRes.Insts, nil
}

// shortHash abbreviates a checkpoint hash for console strings,
// tolerating the empty hash an unarchived checkpoint leaves behind.
func shortHash(h string) string {
	if len(h) < 12 {
		return "unarchived"
	}
	return h[:12]
}
