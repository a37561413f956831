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
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/simcache"
	"gem5art/internal/workloads"
)

// HackbackJob is the broker payload for one distributed hack-back run:
// phase 2 only. The boot is paid once on the launcher (or restored from
// the shared cache) and its checkpoint travels to the worker either
// inline (Ckpt) or by content hash through the status daemon's cache
// endpoint (CkptHash + FetchURL). Workers regenerate the program the
// disk image holds for the benchmark (workloads.ImageProgram), so no
// disk image ships.
type HackbackJob struct {
	Benchmark string `json:"benchmark"`
	Suite     string `json:"suite"` // boot-exit | npb | gapbs | spec
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

// jobOutput is a worker's answer for one cell: the outcome, simulated
// seconds and instructions of the results the run layer records for it.
func jobOutput(res *Results) map[string]any {
	return map[string]any{
		"outcome":     res.Outcome,
		"sim_seconds": res.SimSeconds,
		"insts":       res.Insts,
	}
}

// ExecuteBootJob is the worker-side handler for "boot" jobs.
func ExecuteBootJob(payload json.RawMessage) (any, error) {
	var j BootJob
	if err := json.Unmarshal(payload, &j); err != nil {
		return nil, fmt.Errorf("bad boot payload: %w", err)
	}
	return jobOutput(bootResults(kernel.Spec{
		Kernel: kernel.Version(j.Kernel),
		CPU:    cpu.Model(j.CPU),
		Mem:    j.Mem,
		Cores:  j.Cores,
		Boot:   kernel.BootType(j.Boot),
	}, nil)), nil
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
	res, err := gpuResults(j.App, gpu.Allocator(j.Alloc), nil)
	if err != nil {
		return nil, err
	}
	out := jobOutput(res)
	out["shader_ticks"] = uint64(res.Stats["shader_ticks"])
	return out, nil
}

// BootClassCheckpoint boots (or restores) the class's shared checkpoint
// through the cache, returning the serialized blob, its content hash and
// whether another caller paid for the boot. The launcher calls this once
// per boot class before fanning a matrix out to workers; a hack-back run
// calls it for its own class.
func BootClassCheckpoint(cache *simcache.Cache, class simcache.BootClass) ([]byte, string, bool, error) {
	return cache.BootOnce(class, "bootclass/"+class.Key()+"/cpt.1", func() ([]byte, error) {
		ck, err := hackBoot(class.Cores)
		if err != nil {
			return nil, err
		}
		return ck.Serialize(), nil
	})
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

// ExecuteHackbackJob is the worker-side handler for "hackback" jobs:
// obtain the boot-class checkpoint (inline or fetched by hash, always
// integrity-verified) and run hack-back's phase 2 on the program the
// disk image holds for the benchmark.
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
	if p.Suite == "" {
		p.Suite = "boot-exit"
	}
	prog, err := workloads.ImageProgram(p.Suite, p.Benchmark)
	if err != nil {
		return nil, err
	}
	if p.CPU == "" {
		p.CPU = string(cpu.Timing)
	}
	if p.Mem == "" {
		p.Mem = "classic"
	}
	res, err := hackBackPhase2(ck, p.Cores, prog, cpu.Model(p.CPU), p.Mem, nil)
	if err != nil {
		return nil, err
	}
	out := jobOutput(res)
	out["boot_insts"] = uint64(res.Stats["boot_insts"])
	out["script_insts"] = uint64(res.Stats["script_insts"])
	out["shared_boot"] = true
	return out, nil
}
