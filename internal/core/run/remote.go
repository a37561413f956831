package run

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/simcache"
	"gem5art/internal/workloads"
)

// HackbackJob is the broker payload for one distributed hack-back run:
// phase 2 only. The boot is paid once on the launcher (or restored from
// the shared cache) and its checkpoint travels to the worker either
// inline (Ckpt) or by content hash through the status daemon's cache
// endpoint (CkptHash + FetchURL). Workers regenerate the benchmark
// program from the suite generators, so no disk image ships.
type HackbackJob struct {
	Benchmark string `json:"benchmark"`
	Suite     string `json:"suite"` // boot-exit | npb | gapbs | spec
	Class     string `json:"class,omitempty"`
	Cores     int    `json:"cores"`
	CPU       string `json:"cpu"`
	Mem       string `json:"mem"`
	CkptHash  string `json:"ckpt_hash"`
	Ckpt      []byte `json:"ckpt,omitempty"`      // inline checkpoint blob
	FetchURL  string `json:"fetch_url,omitempty"` // statusd base URL for by-hash fetch
}

// BootJob is the broker payload for one Figure 8 boot cell — what the
// gateway's boot suite and gem5art distribute submit, and
// ExecuteBootJob runs.
type BootJob struct {
	Kernel string `json:"kernel"`
	CPU    string `json:"cpu"`
	Mem    string `json:"mem"`
	Cores  int    `json:"cores"`
	Boot   string `json:"boot"`
}

// ExecuteBootJob is the worker-side handler for "boot" jobs.
func ExecuteBootJob(payload json.RawMessage) (any, error) {
	var j BootJob
	if err := json.Unmarshal(payload, &j); err != nil {
		return nil, fmt.Errorf("bad boot payload: %w", err)
	}
	res := kernel.Boot(kernel.Spec{
		Kernel: kernel.Version(j.Kernel),
		CPU:    cpu.Model(j.CPU),
		Mem:    j.Mem,
		Cores:  j.Cores,
		Boot:   kernel.BootType(j.Boot),
	}, 0)
	return map[string]any{
		"outcome":     string(res.Outcome),
		"sim_seconds": res.SimTicks.Seconds(),
		"insts":       res.Insts,
	}, nil
}

// GPUJob is the broker payload for one Figure 9 register-allocator
// cell: a GPU workload and the allocator to run it under.
type GPUJob struct {
	App   string `json:"app"`
	Alloc string `json:"alloc"`
}

// ExecuteGPUJob is the worker-side handler for "gpu" jobs.
func ExecuteGPUJob(payload json.RawMessage) (any, error) {
	var j GPUJob
	if err := json.Unmarshal(payload, &j); err != nil {
		return nil, fmt.Errorf("bad gpu payload: %w", err)
	}
	w, err := workloads.FindGPUWorkload(j.App)
	if err != nil {
		return nil, err
	}
	res, err := gpu.Run(gpu.Config{}, w.Kernel, gpu.Allocator(j.Alloc))
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"shader_ticks": res.Cycles,
		"ops":          res.Ops,
	}, nil
}

// BootClassCheckpoint boots (or restores) the class's shared checkpoint
// through the cache, returning the serialized blob and its content
// hash. The launcher calls this once per boot class before fanning a
// matrix out to workers.
func BootClassCheckpoint(cache *simcache.Cache, class simcache.BootClass) ([]byte, string, error) {
	blob, hash, _, err := cache.BootOnce(class, "bootclass/"+class.Key()+"/cpt.1",
		func() ([]byte, error) {
			ck, _, err := hackBoot(class.Cores)
			if err != nil {
				return nil, err
			}
			return ck.Serialize(), nil
		})
	return blob, hash, err
}

// CheckpointFetchRetry is the default policy for by-hash checkpoint
// fetches: a worker joining a launch should ride out a status daemon
// that is restarting or briefly partitioned rather than fail the whole
// job. Transport errors, 5xx replies, and integrity mismatches (a
// corrupt or torn transfer) are retried with backoff; 4xx replies fail
// fast — the daemon is up and genuinely does not have the blob.
var CheckpointFetchRetry = tasks.RetryPolicy{
	MaxAttempts: 4,
	BaseDelay:   200 * time.Millisecond,
	MaxDelay:    5 * time.Second,
	Multiplier:  2,
	Jitter:      0.2,
}

// fetchError classifies one failed fetch attempt for the retry policy.
type fetchError struct {
	err       error
	transient bool
}

func (e *fetchError) Error() string   { return e.err.Error() }
func (e *fetchError) Unwrap() error   { return e.err }
func (e *fetchError) Transient() bool { return e.transient }

// FetchCheckpoint retrieves a boot-class checkpoint blob by content
// hash from a status daemon's cache endpoint under CheckpointFetchRetry,
// verifying the bytes against the hash on every attempt before
// returning them.
func FetchCheckpoint(baseURL, hash string) ([]byte, error) {
	return FetchCheckpointWithPolicy(baseURL, hash, CheckpointFetchRetry)
}

// FetchCheckpointWithPolicy is FetchCheckpoint with an explicit retry
// policy.
func FetchCheckpointWithPolicy(baseURL, hash string, rp tasks.RetryPolicy) ([]byte, error) {
	url := strings.TrimRight(baseURL, "/") + "/api/cache/checkpoints/" + hash
	client := &http.Client{Timeout: 30 * time.Second}
	attempts := rp.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			time.Sleep(rp.Backoff(attempt - 1))
		}
		blob, err := fetchCheckpointOnce(client, url, hash)
		if err == nil {
			return blob, nil
		}
		lastErr = err
		if !rp.Retryable(err) {
			break
		}
	}
	return nil, lastErr
}

// fetchCheckpointOnce performs one fetch attempt, including the
// integrity check — a mismatch is a transient transfer failure, not a
// verdict on the daemon's copy.
func fetchCheckpointOnce(client *http.Client, url, hash string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, &fetchError{err: fmt.Errorf("run: fetch checkpoint %s: %w", hash, err), transient: true}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &fetchError{
			err:       fmt.Errorf("run: fetch checkpoint %s: %s", hash, resp.Status),
			transient: resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests,
		}
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &fetchError{err: fmt.Errorf("run: fetch checkpoint %s: %w", hash, err), transient: true}
	}
	if got := database.HashBytes(blob); got != hash {
		return nil, &fetchError{
			err:       fmt.Errorf("run: checkpoint %s failed integrity check (got %s)", hash, got),
			transient: true,
		}
	}
	return blob, nil
}

// suiteProgram regenerates the benchmark program a worker runs; the
// generators are deterministic, so launcher and worker agree on the
// workload without shipping a disk image.
func suiteProgram(suite, bench, class string, core int) (*isa.Program, error) {
	switch suite {
	case "", "boot-exit":
		return workloads.BootExitProgram(), nil
	case "npb":
		if class == "" {
			class = "S"
		}
		return workloads.NPBProgram(bench, workloads.NPBClass(class), core)
	case "gapbs":
		return workloads.GAPBSProgram(bench, 1, core)
	case "spec":
		return workloads.SPECProgram(bench, core)
	}
	return nil, fmt.Errorf("run: unknown suite %q", suite)
}

// ExecuteHackbackJob is the worker-side handler for "hackback" jobs:
// obtain the boot-class checkpoint (inline or fetched by hash, always
// integrity-verified), restore its memory image into a detailed system,
// and run the benchmark.
func ExecuteHackbackJob(payload json.RawMessage) (any, error) {
	var p HackbackJob
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, fmt.Errorf("bad hackback payload: %w", err)
	}
	if p.Cores <= 0 {
		p.Cores = 1
	}
	blob := p.Ckpt
	if len(blob) == 0 {
		if p.FetchURL == "" || p.CkptHash == "" {
			return nil, fmt.Errorf("hackback job has neither inline checkpoint nor fetch_url+ckpt_hash")
		}
		var err error
		blob, err = FetchCheckpoint(p.FetchURL, p.CkptHash)
		if err != nil {
			return nil, err
		}
	} else if p.CkptHash != "" {
		if got := database.HashBytes(blob); got != p.CkptHash {
			return nil, fmt.Errorf("inline checkpoint failed integrity check: want %s got %s", p.CkptHash, got)
		}
	}
	ck, err := cpu.ParseCheckpoint(blob)
	if err != nil {
		return nil, fmt.Errorf("bad checkpoint blob: %w", err)
	}
	var bootInsts uint64
	for _, c := range ck.Cores {
		bootInsts += c.Insts
	}

	model := cpu.Model(p.CPU)
	if model == "" {
		model = cpu.Timing
	}
	memName := p.Mem
	if memName == "" {
		memName = "classic"
	}
	memSys, err := buildMemParam(memName, p.Cores)
	if err != nil {
		return nil, err
	}
	system := cpu.NewSystem(cpu.Config{Model: model, Cores: p.Cores}, memSys)
	defer system.Release()
	for c := 0; c < p.Cores; c++ {
		prog, err := suiteProgram(p.Suite, p.Benchmark, p.Class, c)
		if err != nil {
			return nil, err
		}
		system.LoadProgram(c, prog)
	}
	if err := memSys.Store().LoadSnapshot(ck.Mem); err != nil {
		return nil, err
	}
	res := system.Run(sim.TicksPerSecond)
	outcome := "success"
	if !res.Finished {
		outcome = "timeout"
	}
	return map[string]any{
		"outcome":      outcome,
		"sim_seconds":  res.SimTicks.Seconds(),
		"boot_insts":   bootInsts,
		"script_insts": res.Insts,
		"insts":        bootInsts + res.Insts,
		"shared_boot":  true,
	}, nil
}
