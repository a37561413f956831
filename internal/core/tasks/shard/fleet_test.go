package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
)

func testFleet(t *testing.T, shards int) *Fleet {
	t.Helper()
	f, err := NewFleet(Options{
		Shards: shards,
		Dir:    t.TempDir(),
		Broker: tasks.BrokerOptions{
			HeartbeatTimeout: 400 * time.Millisecond,
			Lease:            800 * time.Millisecond,
			Retry:            tasks.RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond},
		},
		LeaseTTL:     120 * time.Millisecond,
		ShipInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// fleetWorker runs one resolver-dialing worker pinned to a shard: every
// dial (initial or reconnect) resolves the shard's *current* primary,
// which is how workers re-route after a promotion.
func fleetWorker(t *testing.T, f *Fleet, shard int) *tasks.Worker {
	t.Helper()
	echo := func(payload json.RawMessage) (any, error) { return string(payload), nil }
	w, err := tasks.NewWorkerWithOptions(f.ShardAddr(shard), tasks.WorkerOptions{
		Capacity:          4,
		Handlers:          map[string]tasks.JobHandler{"echo": echo},
		HeartbeatInterval: 25 * time.Millisecond,
		ID:                fmt.Sprintf("shard%d-worker", shard),
		Reconnect:         true,
		Dial: func(string) (net.Conn, error) {
			return net.Dial("tcp", f.ShardAddr(shard))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Kill)
	return w
}

// collectFleet drains n results, failing on duplicates or timeout.
func collectFleet(t *testing.T, f *Fleet, n int, timeout time.Duration) map[string]tasks.JobResult {
	t.Helper()
	got := make(map[string]tasks.JobResult, n)
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case res, ok := <-f.Results():
			if !ok {
				t.Fatalf("results channel closed with %d/%d collected", len(got), n)
			}
			if _, dup := got[res.ID]; dup {
				t.Fatalf("duplicate result for %s", res.ID)
			}
			got[res.ID] = res
		case <-deadline:
			t.Fatalf("timed out with %d/%d results (outstanding %d)", len(got), n, f.Outstanding())
		}
	}
	return got
}

func TestFleetRoutesAcrossShards(t *testing.T) {
	f := testFleet(t, 3)
	for i := 0; i < f.Shards(); i++ {
		fleetWorker(t, f, i)
	}
	const jobs = 60
	owners := make(map[int]int)
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("run-%03d", i)
		owners[f.Owner(id)]++
		f.Submit(tasks.Job{ID: id, Kind: "echo", Payload: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))})
	}
	if len(owners) != 3 {
		t.Fatalf("60 jobs landed on %d of 3 shards", len(owners))
	}
	got := collectFleet(t, f, jobs, 15*time.Second)
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("run-%03d", i)
		if res, ok := got[id]; !ok {
			t.Fatalf("missing result for %s", id)
		} else if res.Err != "" {
			t.Fatalf("%s failed: %s", id, res.Err)
		}
	}
	if f.Outstanding() != 0 {
		t.Fatalf("%d jobs still outstanding", f.Outstanding())
	}
}

func TestFleetFailoverPromotesStandby(t *testing.T) {
	f := testFleet(t, 2)
	for i := 0; i < f.Shards(); i++ {
		fleetWorker(t, f, i)
	}
	const jobs = 40
	victim := f.Owner("run-000") // kill the shard owning the first job
	for i := 0; i < jobs; i++ {
		f.Submit(tasks.Job{ID: fmt.Sprintf("run-%03d", i), Kind: "echo", Payload: json.RawMessage(`{}`)})
	}
	f.KillShard(victim)

	got := collectFleet(t, f, jobs, 20*time.Second)
	for id, res := range got {
		if res.Err != "" {
			t.Fatalf("%s failed: %s", id, res.Err)
		}
	}
	if f.Epoch() == 0 {
		t.Fatal("no failover recorded: fleet epoch still 0")
	}
	m := f.Map()
	if m.Shards[victim].Epoch == 0 {
		t.Fatalf("victim shard epoch still 0 after kill: %+v", m)
	}
	// The promoted broker serves a different address than the dead one.
	if f.Broker(victim).Closed() {
		t.Fatal("victim shard's current primary is not serving")
	}
}

func TestFleetRollingKills(t *testing.T) {
	f := testFleet(t, 2)
	for i := 0; i < f.Shards(); i++ {
		fleetWorker(t, f, i)
	}
	const jobs = 50
	for i := 0; i < jobs; i++ {
		f.Submit(tasks.Job{ID: fmt.Sprintf("run-%03d", i), Kind: "echo", Payload: json.RawMessage(`{}`)})
	}
	// Kill each shard's primary in turn, waiting for the first promotion
	// before the second kill so the fleet is never fully dark.
	f.KillShard(0)
	waitEpoch(t, f, 1, 5*time.Second)
	f.KillShard(1)
	waitEpoch(t, f, 2, 5*time.Second)

	got := collectFleet(t, f, jobs, 30*time.Second)
	if len(got) != jobs {
		t.Fatalf("collected %d/%d", len(got), jobs)
	}
}

func waitEpoch(t *testing.T, f *Fleet, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f.Epoch() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("fleet epoch %d never reached %d", f.Epoch(), want)
}

// TestFleetFailoverRetriesAfterListenerFailure is the double-close
// regression: a promotion whose broker cannot start (the listener hook
// fails) leaves the shard fenced, and the monitor's retry — which
// re-enters failover on the same shard — must skip the already-done
// fence steps instead of re-closing shipStop and panicking. Two
// injected failures force two fenced re-entries before the promotion
// lands; Close (via cleanup) then tears the recovered shard down.
func TestFleetFailoverRetriesAfterListenerFailure(t *testing.T) {
	var mu sync.Mutex
	calls, failuresLeft := 0, 2
	f, err := NewFleet(Options{
		Shards: 1,
		Dir:    t.TempDir(),
		Broker: tasks.BrokerOptions{
			HeartbeatTimeout: 400 * time.Millisecond,
			Lease:            800 * time.Millisecond,
			Retry:            tasks.RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond},
		},
		LeaseTTL:     120 * time.Millisecond,
		ShipInterval: 10 * time.Millisecond,
		Listener: func(int) (net.Listener, error) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls > 1 && failuresLeft > 0 { // first call serves the initial primary
				failuresLeft--
				return nil, errors.New("injected listener failure")
			}
			return net.Listen("tcp", "127.0.0.1:0")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	fleetWorker(t, f, 0)

	const jobs = 10
	for i := 0; i < jobs; i++ {
		f.Submit(tasks.Job{ID: fmt.Sprintf("run-%d", i), Kind: "echo", Payload: json.RawMessage(`{}`)})
	}
	f.KillShard(0)
	waitEpoch(t, f, 1, 10*time.Second)

	mu.Lock()
	burned := 2 - failuresLeft
	mu.Unlock()
	if burned != 2 {
		t.Fatalf("promotion succeeded after %d injected failures, want 2 (retry path not exercised)", burned)
	}
	got := collectFleet(t, f, jobs, 20*time.Second)
	for id, res := range got {
		if res.Err != "" {
			t.Fatalf("%s failed: %s", id, res.Err)
		}
	}
}

// A job whose result was recorded and shipped before the kill must not
// re-execute visibly: the promoted broker replays the recorded result
// on resubmit, and the fleet edge delivers it exactly once.
func TestFleetFailoverReplaysRecordedResults(t *testing.T) {
	f := testFleet(t, 1)
	fleetWorker(t, f, 0)
	const jobs = 10
	for i := 0; i < jobs; i++ {
		f.Submit(tasks.Job{ID: fmt.Sprintf("run-%d", i), Kind: "echo", Payload: json.RawMessage(`{}`)})
	}
	got := collectFleet(t, f, jobs, 10*time.Second)
	// Everything is done and delivered; let replication catch up, then
	// kill. The promotion must not redeliver anything.
	deadline := time.Now().Add(5 * time.Second)
	for f.Lag(0) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	f.KillShard(0)
	waitEpoch(t, f, 1, 5*time.Second)
	select {
	case res, ok := <-f.Results():
		if ok {
			t.Fatalf("post-failover duplicate delivery: %+v (had %d)", res, len(got))
		}
	case <-time.After(300 * time.Millisecond):
	}
}

// countingAdmission admits every job but those named in reject, and
// counts Admit and Release calls per job.
type countingAdmission struct {
	mu                 sync.Mutex
	reject             map[string]bool
	admitted, released map[string]int
}

func (a *countingAdmission) Admit(j tasks.Job) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reject[j.ID] {
		return &tasks.QuotaExceededError{Tenant: "t", Reason: "queue full"}
	}
	a.admitted[j.ID]++
	return nil
}

func (a *countingAdmission) Release(j tasks.Job) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.released[j.ID]++
}

func (a *countingAdmission) counts(id string) (admitted, released int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted[id], a.released[id]
}

// TestFleetTrySubmitAdmitsAndReleasesOnce: the fleet's one guarded
// submit path admits before routing, surfaces a rejection without
// queueing, releases a delivered job exactly once, and releases at once
// a job that a closed fleet drops.
func TestFleetTrySubmitAdmitsAndReleasesOnce(t *testing.T) {
	adm := &countingAdmission{
		reject:   map[string]bool{"rejected": true},
		admitted: map[string]int{}, released: map[string]int{},
	}
	f, err := NewFleet(Options{Shards: 2, Dir: t.TempDir(), Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Shards(); i++ {
		fleetWorker(t, f, i)
	}
	job := func(id string) tasks.Job { return tasks.Job{ID: id, Kind: "echo", Payload: json.RawMessage(`{}`)} }

	var quota *tasks.QuotaExceededError
	if err := f.TrySubmit(job("rejected")); !errors.As(err, &quota) {
		t.Fatalf("rejected job: err = %v, want *QuotaExceededError", err)
	}
	if f.Outstanding() != 0 {
		t.Fatalf("a rejected job is outstanding")
	}
	if err := f.TrySubmit(job("ok")); err != nil {
		t.Fatal(err)
	}
	collectFleet(t, f, 1, 10*time.Second)
	if a, r := adm.counts("ok"); a != 1 || r != 1 {
		t.Fatalf("delivered job admitted %d and released %d times, want 1 and 1", a, r)
	}

	f.Close()
	if err := f.TrySubmit(job("late")); err == nil {
		t.Fatal("closed fleet accepted a job")
	}
	if a, r := adm.counts("late"); a != 1 || r != 1 {
		t.Fatalf("job dropped by a closed fleet admitted %d and released %d times, want 1 and 1", a, r)
	}
}
