package run

import (
	"fmt"

	"gem5art/internal/energy"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/isa"
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
	// A prior attempt of this same run may have archived a checkpoint;
	// it is only trustworthy if it was taken under the same boot class —
	// same kernel and disk identity, core count, and phase-1 memory.
	if prior, hash, priorClass := r.PriorCheckpoint(); prior != nil &&
		priorClass == classKey && len(prior.Cores) == cores {
		ck, ckptHash, resumedFrom = prior, hash, hash
	}
	// Boot-class cache: the first run in the class boots (concurrent
	// siblings coalesce onto it via singleflight), everyone else
	// restores the archived class checkpoint.
	if cache := r.cacheRef(); ck == nil && cache != nil {
		blob, hash, shared, err := BootClassCheckpoint(cache, class)
		if err != nil {
			return nil, err
		}
		if parsed, perr := cpu.ParseCheckpoint(blob); perr == nil {
			ck, ckptHash, sharedBoot = parsed, hash, shared
			if hash != "" { // archive may have been skipped (low disk, degraded store)
				r.RecordCheckpoint(hash, classKey)
			}
		}
	}
	if ck == nil {
		if ck, err = hackBoot(cores); err != nil {
			return nil, err
		}
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
	bin, err := img.ReadFile("/benchmarks/" + r.Param("suite", "boot-exit") + "/" + bench)
	if err != nil {
		return nil, err
	}
	prog, err := decodeProgram(bin)
	if err != nil {
		return nil, err
	}
	emodel, err := r.energyModel()
	if err != nil {
		return nil, err
	}
	res, err := hackBackPhase2(ck, cores, prog,
		cpu.Model(r.Param("cpu", string(cpu.Timing))), r.Param("mem_sys", "classic"), emodel)
	if err != nil {
		return nil, err
	}
	res.Console = fmt.Sprintf("m5 checkpoint (archived %s)\nrestored; script %s complete\nm5 exit",
		shortHash(ckptHash), bench)
	switch {
	case resumedFrom != "":
		res.Console = fmt.Sprintf("resumed from checkpoint %s (boot skipped)\nscript %s complete\nm5 exit",
			shortHash(resumedFrom), bench)
	case sharedBoot:
		res.Console = fmt.Sprintf("restored boot-class checkpoint %s (boot skipped)\nscript %s complete\nm5 exit",
			shortHash(ckptHash), bench)
	}
	res.ResumedFrom, res.BootClass, res.SharedBoot = resumedFrom, classKey, sharedBoot
	return res, nil
}

// hackBackPhase2 restores a boot checkpoint's memory image into a
// detailed system of cores cores, runs prog on every core and builds
// the results: the one phase 2 behind runHackBack and
// ExecuteHackbackJob. Energy accounts the detailed system only: the
// fast KVM boot is shared across the whole class, so charging it to one
// run would make identical scripts report different joules depending on
// who happened to pay for the boot.
func hackBackPhase2(ck *cpu.Checkpoint, cores int, prog *isa.Program, model cpu.Model, memKind string,
	emodel *energy.Model) (*Results, error) {
	memSys, err := buildMemParam(memKind, cores)
	if err != nil {
		return nil, err
	}
	system := cpu.NewSystem(cpu.Config{Model: model, Cores: cores}, memSys)
	defer system.Release()
	if emodel != nil {
		energy.Attach(system.Stats(), emodel, memSys.Stats())
	}
	for c := 0; c < cores; c++ {
		system.LoadProgram(c, prog)
	}
	if err := memSys.Store().LoadSnapshot(ck.Mem); err != nil {
		return nil, err
	}
	res := system.Run(sim.TicksPerSecond)
	var bootInsts uint64
	for _, c := range ck.Cores {
		bootInsts += c.Insts
	}
	stats := map[string]float64{
		"boot_insts":   float64(bootInsts),
		"script_insts": float64(res.Insts),
		"sim_seconds":  res.SimTicks.Seconds(),
	}
	if emodel != nil {
		for k, v := range system.Stats().Values() {
			stats[k] = v
		}
	}
	return &Results{
		Outcome:    outcome(res),
		SimSeconds: res.SimTicks.Seconds(),
		Insts:      bootInsts + res.Insts,
		Stats:      stats,
	}, nil
}

// hackBoot performs the phase-1 fast boot: KVM cores on the classic
// memory system running the boot-exit program to completion.
func hackBoot(cores int) (*cpu.Checkpoint, error) {
	bootProg := workloads.BootExitProgram()
	fastMem, err := buildMemParam("classic", cores)
	if err != nil {
		return nil, err
	}
	fast := cpu.NewSystem(cpu.Config{Model: cpu.KVM, Cores: cores}, fastMem)
	defer fast.Release()
	for c := 0; c < cores; c++ {
		fast.LoadProgram(c, bootProg)
	}
	if !fast.Run(sim.TicksPerSecond).Finished {
		return nil, fmt.Errorf("run: hack-back boot did not finish")
	}
	return fast.SaveCheckpoint(), nil
}

// shortHash abbreviates a checkpoint hash for console strings,
// tolerating the empty hash an unarchived checkpoint leaves behind.
func shortHash(h string) string {
	if len(h) < 12 {
		return "unarchived"
	}
	return h[:12]
}
