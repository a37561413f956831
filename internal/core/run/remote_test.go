package run

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/simcache"
	"gem5art/internal/statusd"
)

// bootBlob boots a fresh 1-core class and returns the serialized
// checkpoint with its content hash.
func bootBlob(t *testing.T) ([]byte, string) {
	t.Helper()
	ck, err := hackBoot(1)
	if err != nil {
		t.Fatal(err)
	}
	blob := ck.Serialize()
	return blob, database.HashBytes(blob)
}

func TestExecuteHackbackJobInline(t *testing.T) {
	blob, hash := bootBlob(t)
	payload, _ := json.Marshal(HackbackJob{
		Benchmark: "cg", Suite: "npb",
		Cores: 1, CPU: "TimingSimpleCPU", Mem: "classic",
		CkptHash: hash, Ckpt: blob,
	})
	out, err := ExecuteHackbackJob(payload)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := out.(map[string]any)
	if !ok {
		t.Fatalf("result type %T", out)
	}
	if res["outcome"] != "success" {
		t.Fatalf("outcome: %v", res)
	}
	boot := res["boot_insts"].(uint64)
	script := res["script_insts"].(uint64)
	if boot == 0 || script == 0 || res["insts"].(uint64) != boot+script {
		t.Fatalf("instruction accounting: %v", res)
	}
}

func TestExecuteHackbackJobRejectsCorruptInlineCheckpoint(t *testing.T) {
	blob, hash := bootBlob(t)
	blob[0] ^= 0xff
	payload, _ := json.Marshal(HackbackJob{
		Suite: "boot-exit", Cores: 1, CkptHash: hash, Ckpt: blob,
	})
	if _, err := ExecuteHackbackJob(payload); err == nil {
		t.Fatal("corrupt inline checkpoint accepted")
	}
}

func TestExecuteHackbackJobFetchesByHash(t *testing.T) {
	db := database.MustOpen("")
	defer db.Close()
	cache := simcache.New(db, simcache.Options{})
	blob, _ := bootBlob(t)
	class := simcache.BootClass{KernelHash: "k", DiskHash: "d", Cores: 1, Mem: "classic"}
	hash, _ := cache.PutCheckpoint(class, "bootclass/fetch/cpt.1", blob)

	sd := statusd.New(db)
	sd.Cache = cache
	ts := httptest.NewServer(sd.Handler())
	defer ts.Close()

	payload, _ := json.Marshal(HackbackJob{
		Benchmark: "ep", Suite: "npb", Cores: 1,
		CkptHash: hash, FetchURL: ts.URL,
	})
	out, err := ExecuteHackbackJob(payload)
	if err != nil {
		t.Fatal(err)
	}
	if res := out.(map[string]any); res["outcome"] != "success" {
		t.Fatalf("outcome: %v", res)
	}
}

// fastFetchRetry is CheckpointFetchRetry with test-friendly delays.
func fastFetchRetry(attempts int) tasks.RetryPolicy {
	return tasks.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Multiplier: 2}
}

func TestFetchCheckpointRejectsWrongBytes(t *testing.T) {
	// A server that persistently answers with bytes that do not hash to
	// what was asked for: every attempt fails the integrity check and
	// the fetch reports the mismatch.
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		_, _ = w.Write([]byte("not the checkpoint you asked for"))
	}))
	defer ts.Close()
	if _, err := FetchCheckpointWithPolicy(ts.URL, "00000000000000000000000000000000", fastFetchRetry(3)); err == nil {
		t.Fatal("mismatched fetch accepted")
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3 (integrity failures retry)", hits.Load())
	}
}

func TestFetchCheckpointRetriesTransientFailures(t *testing.T) {
	blob, hash := bootBlob(t)
	// Two 500s — a status daemon mid-restart — then a clean transfer.
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "restarting", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(blob)
	}))
	defer ts.Close()
	got, err := FetchCheckpointWithPolicy(ts.URL, hash, fastFetchRetry(4))
	if err != nil {
		t.Fatalf("fetch did not ride out transient failures: %v", err)
	}
	if database.HashBytes(got) != hash {
		t.Fatal("fetched blob fails integrity check")
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
}

func TestFetchCheckpointRetriesCorruptTransfer(t *testing.T) {
	blob, hash := bootBlob(t)
	// The first transfer is torn (half the bytes); integrity re-verifies
	// per attempt, so the retry gets the full blob.
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits.Add(1) == 1 {
			_, _ = w.Write(blob[:len(blob)/2])
			return
		}
		_, _ = w.Write(blob)
	}))
	defer ts.Close()
	got, err := FetchCheckpointWithPolicy(ts.URL, hash, fastFetchRetry(3))
	if err != nil {
		t.Fatalf("fetch did not recover from corrupt transfer: %v", err)
	}
	if database.HashBytes(got) != hash {
		t.Fatal("fetched blob fails integrity check")
	}
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want 2", hits.Load())
	}
}

func TestFetchCheckpointDoesNotRetryNotFound(t *testing.T) {
	// 404 means the daemon is up and does not have the blob: retrying
	// cannot help, so the fetch fails fast after one attempt.
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.NotFound(w, nil)
	}))
	defer ts.Close()
	if _, err := FetchCheckpointWithPolicy(ts.URL, "deadbeef", fastFetchRetry(4)); err == nil {
		t.Fatal("missing checkpoint fetch succeeded")
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want 1 (404 is permanent)", hits.Load())
	}
}

func TestExecuteHackbackJobRequiresASource(t *testing.T) {
	payload, _ := json.Marshal(HackbackJob{Suite: "boot-exit", Cores: 1})
	if _, err := ExecuteHackbackJob(payload); err == nil {
		t.Fatal("job with no checkpoint source accepted")
	}
}
