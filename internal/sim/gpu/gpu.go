// Package gpu implements a GCN3-style GPU timing model sized per the
// paper's Table III: 4 compute units, 4 SIMD16 vector units per CU, up to
// 10 wavefronts per SIMD (40 per CU), 8K vector and scalar registers per
// CU, and 64 KB of LDS per CU, over the shared memory hierarchy.
//
// The model exists to reproduce use case 3 (Figure 9): how the two
// register-allocation policies trade off. The `simple` policy maps one
// workgroup to a CU at a time, placing one wavefront per SIMD16; the
// `dynamic` policy packs as many workgroups as wave slots, registers, and
// LDS allow. Dynamic raises occupancy — which hides memory latency — but
// the model's deliberately simplistic dependence tracking (mirroring the
// public gem5 GCN3 model that the paper calls out) makes dependent
// instructions stall longer as more wavefronts share a SIMD, and global
// atomics serialize, so high occupancy can hurt synchronization-heavy
// kernels.
package gpu

import (
	"fmt"
	"math/rand"
	"sync"
)

// Allocator selects the register-allocation policy.
type Allocator string

// The two policies compared in Figure 9.
const (
	Simple  Allocator = "simple"
	Dynamic Allocator = "dynamic"
)

// Config sizes the GPU. Zero values take Table III defaults.
type Config struct {
	CUs             int // 4
	SIMDsPerCU      int // 4
	MaxWavesPerSIMD int // 10
	VRegsPerCU      int // 8192
	SRegsPerCU      int // 8192
	LDSPerCU        int // 65536 bytes
	FreqHz          uint64
	// PreciseDeps enables the improved dependence tracking the paper
	// proposes as a future gem5 contribution (§VI-C): the scoreboard
	// scan no longer scales with occupancy, so dependent issue costs one
	// cycle regardless of resident wavefronts. Use for ablations.
	PreciseDeps bool
}

// Defaults fills in Table III values.
func (c *Config) Defaults() {
	if c.CUs == 0 {
		c.CUs = 4
	}
	if c.SIMDsPerCU == 0 {
		c.SIMDsPerCU = 4
	}
	if c.MaxWavesPerSIMD == 0 {
		c.MaxWavesPerSIMD = 10
	}
	if c.VRegsPerCU == 0 {
		c.VRegsPerCU = 8192
	}
	if c.SRegsPerCU == 0 {
		c.SRegsPerCU = 8192
	}
	if c.LDSPerCU == 0 {
		c.LDSPerCU = 64 * 1024
	}
	if c.FreqHz == 0 {
		c.FreqHz = 1_000_000_000
	}
}

// KernelDesc describes one GPU kernel launch: its shape (workgroups and
// wavefronts), resource demands (registers, LDS), and dynamic instruction
// profile. Workload models (Table IV) are expressed as KernelDescs.
type KernelDesc struct {
	Name         string
	WGs          int // workgroups in the grid
	WavesPerWG   int
	VRegsPerWave int // vector registers demanded by each wavefront
	SRegsPerWave int
	LDSPerWG     int // bytes
	OpsPerWave   int // dynamic ops per wavefront

	MemFrac    float64 // global memory ops
	LDSFrac    float64 // LDS ops
	AtomicFrac float64 // contended global atomics (sync primitives)
	DepDensity float64 // fraction of VALU ops dependent on the previous op
	Locality   float64 // probability a global access hits the L1
	Barriers   int     // workgroup-wide barriers per wavefront
	// AtomicChannels is the number of independent contended lines the
	// kernel's atomics spread over (1 = one global lock; HeteroSync's
	// "Uniq" variants use per-workgroup locks and so contend less).
	AtomicChannels int
	Seed           int64
}

// Validate sanity-checks a descriptor against a config.
func (k *KernelDesc) Validate(cfg Config) error {
	cfg.Defaults()
	if k.WGs <= 0 || k.WavesPerWG <= 0 || k.OpsPerWave <= 0 {
		return fmt.Errorf("gpu: %s: non-positive shape", k.Name)
	}
	if k.WavesPerWG > cfg.SIMDsPerCU*cfg.MaxWavesPerSIMD {
		return fmt.Errorf("gpu: %s: workgroup of %d waves exceeds CU capacity %d",
			k.Name, k.WavesPerWG, cfg.SIMDsPerCU*cfg.MaxWavesPerSIMD)
	}
	if k.VRegsPerWave*k.WavesPerWG > cfg.VRegsPerCU {
		return fmt.Errorf("gpu: %s: one workgroup needs %d vregs, CU has %d",
			k.Name, k.VRegsPerWave*k.WavesPerWG, cfg.VRegsPerCU)
	}
	if k.LDSPerWG > cfg.LDSPerCU {
		return fmt.Errorf("gpu: %s: LDS %d exceeds CU LDS %d", k.Name, k.LDSPerWG, cfg.LDSPerCU)
	}
	return nil
}

// Timing constants (cycles).
const (
	valuPipe     = 4   // base VALU result latency
	l1HitLat     = 30  // global access, L1 hit
	l1MissLat    = 300 // global access, miss to L2/DRAM
	ldsLat       = 6
	atomicLat    = 120 // base serialized global atomic
	memPortOcc   = 8   // coalescer occupancy per global access
	dynDispatch  = 40  // dynamic-allocator bookkeeping per workgroup launch
	maxCycleSafe = 500_000_000
)

// depIssueCycles is how long the issue stage holds a SIMD while the
// simplistic dependence tracker scans in-flight state for a dependent
// op: one cycle plus 2.5 cycles per extra co-resident wave (the tracker
// rescans every in-flight wavefront's outstanding registers on each
// dependent issue). This is the deliberate model deficiency from §VI-C —
// the scan cost grows with occupancy, so packing more wavefronts
// throttles dependence-dense code below the single-wave-per-SIMD
// baseline, which is why the simple allocator wins on such kernels.
func depIssueCycles(residentOnSIMD int) uint64 {
	return 1 + uint64(5*(residentOnSIMD-1))/2
}

// Result reports one kernel simulation.
type Result struct {
	Kernel       string
	Allocator    Allocator
	Cycles       uint64 // shader ticks at 1 GHz
	Ops          uint64
	MemAccesses  uint64
	AtomicOps    uint64
	AvgOccupancy float64 // mean resident waves per CU
	DepStalls    uint64  // cycles lost to dependence tracking
	MemStalls    uint64
	AtomicStalls uint64
}

type wave struct {
	wg       *workgroup
	simd     int
	opsLeft  int
	readyAt  uint64
	rng      *rand.Rand // from wavePool while the wave is resident
	barriers int
	atBar    bool
	done     bool
}

type workgroup struct {
	id        int
	cu        int
	waves     []wave
	remaining int
	barWait   int // waves currently parked at the barrier
}

type cuState struct {
	freeVRegs int
	freeSRegs int
	freeLDS   int
	perSIMD   []int // resident waves per SIMD
	resident  int
	memFree   uint64 // coalescer port availability
	wgs       int    // resident workgroups
}

// wavePool recycles wave generators across waves and runs. Seed fully
// resets a source, so a pooled generator seeded at placement yields the
// same stream as rand.New(rand.NewSource(seed)), and a run allocates
// generators for its resident waves rather than for all of them.
var wavePool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Run simulates one kernel launch under the given allocator and returns
// timing and occupancy statistics. It is deterministic for a fixed
// descriptor: each wave draws from its own stream, seeded
// k.Seed+1000*wg+wave when the wave is placed, and waves issue in
// placement order.
func Run(cfg Config, k KernelDesc, alloc Allocator) (Result, error) {
	cfg.Defaults()
	if alloc != Simple && alloc != Dynamic {
		return Result{}, fmt.Errorf("gpu: %s: unknown register allocator %q", k.Name, alloc)
	}
	if err := k.Validate(cfg); err != nil {
		return Result{}, err
	}
	res := Result{Kernel: k.Name, Allocator: alloc}

	cus := make([]cuState, cfg.CUs)
	perSIMD := make([]int, cfg.CUs*cfg.SIMDsPerCU)
	for i := range cus {
		cus[i] = cuState{
			freeVRegs: cfg.VRegsPerCU,
			freeSRegs: cfg.SRegsPerCU,
			freeLDS:   cfg.LDSPerCU,
			perSIMD:   perSIMD[i*cfg.SIMDsPerCU : (i+1)*cfg.SIMDsPerCU],
		}
	}

	wgs := make([]workgroup, k.WGs)
	waves := make([]wave, k.WGs*k.WavesPerWG)
	for i := range wgs {
		wg := &wgs[i]
		*wg = workgroup{id: i, remaining: k.WavesPerWG, waves: waves[i*k.WavesPerWG : (i+1)*k.WavesPerWG]}
		for w := range wg.waves {
			wg.waves[w] = wave{wg: wg, opsLeft: k.OpsPerWave, barriers: k.Barriers}
		}
	}
	next := 0 // first workgroup not yet dispatched

	maxResident := cfg.CUs * cfg.SIMDsPerCU * cfg.MaxWavesPerSIMD
	active := make([]*wave, 0, min(len(waves), maxResident))
	pruneDue := false   // a wave finished since active was last pruned
	resident := 0       // resident waves over all CUs
	var cycleNow uint64 // shared with the closures below
	atomicChannels := k.AtomicChannels
	if atomicChannels < 1 {
		atomicChannels = 1
	}
	atomicFree := make([]uint64, atomicChannels)

	// canPlace needs no per-SIMD slot count: the SIMDs' resident waves
	// sum to cu.resident, so the CU-wide wave cap already decides it.
	canPlace := func(cu *cuState) bool {
		if alloc == Simple && cu.wgs >= 1 {
			return false
		}
		return cu.freeVRegs >= k.VRegsPerWave*k.WavesPerWG &&
			cu.freeSRegs >= k.SRegsPerWave*k.WavesPerWG &&
			cu.freeLDS >= k.LDSPerWG &&
			cu.resident+k.WavesPerWG <= cfg.SIMDsPerCU*cfg.MaxWavesPerSIMD
	}

	place := func(cuIdx int, wg *workgroup) {
		cu := &cus[cuIdx]
		cu.freeVRegs -= k.VRegsPerWave * k.WavesPerWG
		cu.freeSRegs -= k.SRegsPerWave * k.WavesPerWG
		cu.freeLDS -= k.LDSPerWG
		cu.wgs++
		wg.cu = cuIdx
		for i := range wg.waves {
			w := &wg.waves[i]
			w.rng = wavePool.Get().(*rand.Rand)
			w.rng.Seed(k.Seed + int64(wg.id)*1000 + int64(i))
			// The dynamic allocator's per-launch register scan delays the
			// workgroup's waves; the simple allocator's fixed mapping is
			// free.
			if alloc == Dynamic && cycleNow+dynDispatch > w.readyAt {
				w.readyAt = cycleNow + dynDispatch
			}
			// Least-loaded SIMD, matching the simple policy's one-wave-
			// per-SIMD layout when the CU is empty.
			best := 0
			for s := 1; s < cfg.SIMDsPerCU; s++ {
				if cu.perSIMD[s] < cu.perSIMD[best] {
					best = s
				}
			}
			w.simd = best
			cu.perSIMD[best]++
			cu.resident++
			resident++
			active = append(active, w)
		}
	}

	dispatch := func() {
		for next < len(wgs) {
			placed := false
			for cuIdx := range cus {
				if next == len(wgs) {
					break
				}
				if canPlace(&cus[cuIdx]) {
					place(cuIdx, &wgs[next])
					next++
					placed = true
				}
			}
			if !placed {
				break
			}
		}
	}
	dispatch()

	finish := func(w *wave) {
		w.done = true
		wavePool.Put(w.rng)
		w.rng = nil
		pruneDue = true
		wg := w.wg
		cu := &cus[wg.cu]
		cu.perSIMD[w.simd]--
		cu.resident--
		resident--
		wg.remaining--
		if wg.remaining == 0 {
			cu.freeVRegs += k.VRegsPerWave * k.WavesPerWG
			cu.freeSRegs += k.SRegsPerWave * k.WavesPerWG
			cu.freeLDS += k.LDSPerWG
			cu.wgs--
			dispatch()
		}
	}

	var cycle uint64
	var occupancySamples, occupancySum uint64
	simdBusy := make([]uint64, cfg.CUs*cfg.SIMDsPerCU) // cu*SIMDsPerCU+simd -> busy-until cycle

	for {
		// Prune finished waves. Only finish marks a wave done, and
		// pruning keeps order, so the issue order is placement order.
		if pruneDue {
			live := active[:0]
			for _, w := range active {
				if !w.done {
					live = append(live, w)
				}
			}
			active = live
			pruneDue = false
		}
		if len(active) == 0 {
			if next < len(wgs) {
				dispatch()
				if len(active) == 0 {
					return Result{}, fmt.Errorf("gpu: %s: dispatch wedged with %d pending WGs",
						k.Name, len(wgs)-next)
				}
				continue
			}
			break
		}
		if cycle > maxCycleSafe {
			return Result{}, fmt.Errorf("gpu: %s: exceeded cycle safety limit", k.Name)
		}

		cycleNow = cycle
		// Sample occupancy every 64 cycles.
		if cycle%64 == 0 {
			occupancySum += uint64(resident)
			occupancySamples++
		}

		progressed := false
		nextReady := ^uint64(0)
		for _, w := range active {
			if w.atBar {
				continue
			}
			if w.readyAt > cycle {
				if w.readyAt < nextReady {
					nextReady = w.readyAt
				}
				continue
			}
			slot := w.wg.cu*cfg.SIMDsPerCU + w.simd
			if busy := simdBusy[slot]; busy > cycle {
				if busy < nextReady {
					nextReady = busy
				}
				continue
			}
			// Issue one op from this wave.
			simdBusy[slot] = cycle + 1
			progressed = true
			res.Ops++
			w.opsLeft--
			cu := &cus[w.wg.cu]
			r := w.rng.Float64()
			switch {
			case r < k.AtomicFrac:
				// Contended global atomics serialize per lock line, and
				// each one costs more as more waves fight for the line
				// (retries and cache-line ping-pong): three extra cycles
				// per four co-resident waves.
				ch := 0
				if atomicChannels > 1 {
					ch = w.wg.id % atomicChannels
				}
				start := max64(cycle, atomicFree[ch])
				done := start + atomicLat + uint64(3*(resident-1))/4
				atomicFree[ch] = done
				res.AtomicStalls += done - cycle
				res.AtomicOps++
				w.readyAt = done
			case r < k.AtomicFrac+k.MemFrac:
				start := max64(cycle, cu.memFree)
				cu.memFree = start + memPortOcc
				lat := uint64(l1MissLat)
				if w.rng.Float64() < k.Locality {
					lat = l1HitLat
				}
				res.MemStalls += (start - cycle) + lat
				res.MemAccesses++
				w.readyAt = start + lat
			case r < k.AtomicFrac+k.MemFrac+k.LDSFrac:
				w.readyAt = cycle + ldsLat
			default:
				// VALU. A dependent op requires a dependence-tracker scan
				// that occupies the SIMD issue stage for longer as more
				// waves are resident, and the wave itself waits for the
				// pipeline. With PreciseDeps the scan is O(1).
				if w.rng.Float64() < k.DepDensity {
					issue := uint64(1)
					if !cfg.PreciseDeps {
						issue = depIssueCycles(cu.perSIMD[w.simd])
					}
					simdBusy[slot] = cycle + issue
					res.DepStalls += issue - 1
					w.readyAt = cycle + valuPipe
				} else {
					w.readyAt = cycle + 1
				}
			}
			// Barrier points are evenly spaced through the wave.
			if w.barriers > 0 && k.Barriers > 0 &&
				w.opsLeft == (k.OpsPerWave*w.barriers)/(k.Barriers+1) {
				w.barriers--
				w.atBar = true
				w.wg.barWait++
				if w.wg.barWait == len(w.wg.waves) {
					for i := range w.wg.waves {
						ww := &w.wg.waves[i]
						if !ww.done {
							ww.atBar = false
							if ww.readyAt < cycle+1 {
								ww.readyAt = cycle + 1
							}
						}
					}
					w.wg.barWait = 0
				}
			}
			if w.opsLeft <= 0 {
				if w.atBar {
					// A wave finishing at a barrier releases it.
					w.wg.barWait--
					w.atBar = false
				}
				finish(w)
			}
		}
		if progressed {
			cycle++
			continue
		}
		// Nothing issued: jump to the next wake-up.
		if nextReady == ^uint64(0) || nextReady <= cycle {
			cycle++
		} else {
			cycle = nextReady
		}
	}

	res.Cycles = cycle
	if occupancySamples > 0 {
		res.AvgOccupancy = float64(occupancySum) / float64(occupancySamples) / float64(cfg.CUs)
	}
	return res, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Speedup returns dynamic-over-simple performance for a kernel: >1 means
// the dynamic allocator is faster (Figure 9's y-axis).
func Speedup(cfg Config, k KernelDesc) (float64, error) {
	s, err := Run(cfg, k, Simple)
	if err != nil {
		return 0, err
	}
	d, err := Run(cfg, k, Dynamic)
	if err != nil {
		return 0, err
	}
	if d.Cycles == 0 {
		return 0, fmt.Errorf("gpu: %s: zero-cycle dynamic run", k.Name)
	}
	return float64(s.Cycles) / float64(d.Cycles), nil
}
