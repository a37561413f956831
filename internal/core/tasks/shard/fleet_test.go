package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
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
		owners[f.ring.Owner(id)]++
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
	victim := f.ring.Owner("run-000") // kill the shard owning the first job
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

// countingWorker is a fleetWorker whose echo handler counts its runs.
func countingWorker(t *testing.T, f *Fleet, runs *atomic.Int64) {
	t.Helper()
	w, err := tasks.NewWorkerWithOptions(f.ShardAddr(0), tasks.WorkerOptions{
		Capacity: 4,
		Handlers: map[string]tasks.JobHandler{"echo": func(p json.RawMessage) (any, error) {
			runs.Add(1)
			return string(p), nil
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		ID:                "counting-worker",
		Reconnect:         true,
		Dial:              func(string) (net.Conn, error) { return net.Dial("tcp", f.ShardAddr(0)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Kill)
}

// TestFleetRestartAfterFailoverReplaysFinishedJobs: jobs finish on a
// promoted primary, and a fleet reopened over the same Dir resumes from
// that store, not the deposed one it replaced, so resubmitting the
// jobs replays their results instead of running them again.
func TestFleetRestartAfterFailoverReplaysFinishedJobs(t *testing.T) {
	opts := Options{
		Shards:       1,
		Dir:          t.TempDir(),
		Broker:       tasks.BrokerOptions{HeartbeatTimeout: 400 * time.Millisecond},
		LeaseTTL:     120 * time.Millisecond,
		ShipInterval: 10 * time.Millisecond,
	}
	const jobs = 10
	submit := func(f *Fleet) {
		for i := 0; i < jobs; i++ {
			f.Submit(tasks.Job{ID: fmt.Sprintf("run-%d", i), Kind: "echo", Payload: json.RawMessage(`{}`)})
		}
	}
	var runs atomic.Int64
	f1, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	countingWorker(t, f1, &runs)
	f1.KillShard(0)
	waitEpoch(t, f1, 1, 5*time.Second)
	submit(f1) // runs on the promoted primary, store-gen1
	collectFleet(t, f1, jobs, 10*time.Second)
	f1.Close()

	f2, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	countingWorker(t, f2, &runs)
	submit(f2)
	collectFleet(t, f2, jobs, 10*time.Second)
	if n := runs.Load(); n != jobs {
		t.Fatalf("%d handler runs for %d jobs: the restart re-ran %d finished jobs", n, jobs, n-jobs)
	}
}

// TestFleetResubmitOfDeliveredJobReplays: submitting a job whose
// result the fleet already delivered delivers it again, as a single
// broker does, and leaves nothing outstanding.
func TestFleetResubmitOfDeliveredJobReplays(t *testing.T) {
	f := testFleet(t, 1)
	fleetWorker(t, f, 0)
	job := tasks.Job{ID: "again", Kind: "echo", Payload: json.RawMessage(`{}`)}
	f.Submit(job)
	first := collectFleet(t, f, 1, 10*time.Second)
	f.Submit(job)
	if again := collectFleet(t, f, 1, 2*time.Second); !reflect.DeepEqual(again, first) {
		t.Fatalf("resubmit delivered %+v, first delivery %+v", again, first)
	}
	if n := f.Outstanding(); n != 0 {
		t.Fatalf("%d jobs outstanding after the replay", n)
	}
}

// TestFleetRestartDeliversRecoveredJobs: jobs still queued when a fleet
// closes are recovered by a fleet reopened over the same Dir, which
// runs them and delivers their results without their being submitted
// again.
func TestFleetRestartDeliversRecoveredJobs(t *testing.T) {
	opts := Options{
		Shards:       1,
		Dir:          t.TempDir(),
		Broker:       tasks.BrokerOptions{HeartbeatTimeout: 400 * time.Millisecond},
		LeaseTTL:     120 * time.Millisecond,
		ShipInterval: 10 * time.Millisecond,
	}
	const jobs = 5
	f1, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		f1.Submit(tasks.Job{ID: fmt.Sprintf("run-%d", i), Kind: "echo", Payload: json.RawMessage(`{}`)})
	}
	f1.Close() // no worker ever connected: every job is parked
	if err := f1.Submit(tasks.Job{ID: "late", Kind: "echo"}); err == nil {
		t.Fatal("a closed fleet accepted a job")
	}

	f2, err := NewFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if n := f2.Outstanding(); n != jobs {
		t.Fatalf("reopened fleet owes %d results, want %d", n, jobs)
	}
	var runs atomic.Int64
	countingWorker(t, f2, &runs)
	collectFleet(t, f2, jobs, 10*time.Second)
	if n := f2.Outstanding(); n != 0 {
		t.Fatalf("%d jobs outstanding after every recovered job delivered", n)
	}
}
