package tasks

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/database"
)

// durableBroker opens a broker over db with fast monitor settings.
func durableBroker(t *testing.T, db database.Store, addr string) *Broker {
	t.Helper()
	b, err := NewBrokerWithOptions(addr, BrokerOptions{
		DB:            db,
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
		Retry:         RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBrokerDurablePersistsAcrossRestart(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()

	// A launch is submitted but the broker dies before any worker shows
	// up: every job and its retry budget must survive the crash.
	b1 := durableBroker(t, db, "127.0.0.1:0")
	for i := 0; i < 10; i++ {
		b1.Submit(Job{ID: fmt.Sprintf("job-%d", i), Kind: "echo",
			Payload: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))})
	}
	if n := b1.PendingCount(); n != 10 {
		t.Fatalf("pending before crash = %d", n)
	}
	b1.Kill()

	b2 := durableBroker(t, db, "127.0.0.1:0")
	defer b2.Close()
	if n := b2.PendingCount(); n != 10 {
		t.Fatalf("recovered pending = %d, want 10", n)
	}
	var count atomic.Int64
	w, err := NewWorker(b2.Addr(), 4, map[string]JobHandler{
		"echo": func(p json.RawMessage) (any, error) { count.Add(1); return json.RawMessage(p), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := collect(t, b2, 10, 5*time.Second)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("job-%d", i)
		r, ok := got[id]
		if !ok || r.Err != "" {
			t.Fatalf("job %s: %+v", id, r)
		}
		if string(r.Output) != fmt.Sprintf(`{"n":%d}`, i) {
			t.Fatalf("job %s payload round-trip: %s", id, r.Output)
		}
	}
	if count.Load() != 10 {
		t.Fatalf("executions = %d, want 10", count.Load())
	}
}

func TestBrokerDurableDoneResultsReplayIdempotently(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()

	var count atomic.Int64
	handlers := map[string]JobHandler{
		"echo": func(json.RawMessage) (any, error) { count.Add(1); return map[string]int{"ok": 1}, nil },
	}
	b1 := durableBroker(t, db, "127.0.0.1:0")
	w1, err := NewWorker(b1.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	b1.Submit(Job{ID: "j1", Kind: "echo"})
	collect(t, b1, 1, 5*time.Second)
	w1.Close()
	b1.Kill()

	// The restarted broker knows the result without any worker attached,
	// and a resubmit (the launcher re-running its launch script) replays
	// it instead of executing again.
	b2 := durableBroker(t, db, "127.0.0.1:0")
	defer b2.Close()
	if res, ok := b2.Result("j1"); !ok || res.Err != "" || string(res.Output) != `{"ok":1}` {
		t.Fatalf("recovered result: %+v ok=%v", res, ok)
	}
	b2.Submit(Job{ID: "j1", Kind: "echo"})
	got := collect(t, b2, 1, 5*time.Second)
	if string(got["j1"].Output) != `{"ok":1}` {
		t.Fatalf("replayed result: %+v", got["j1"])
	}
	if count.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (replay must not re-execute)", count.Load())
	}
	if n := b2.PendingCount(); n != 0 {
		t.Fatalf("replay left %d jobs pending", n)
	}
}

func TestBrokerDurableSubmitDeduplicates(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()
	b := durableBroker(t, db, "127.0.0.1:0")
	defer b.Close()
	for i := 0; i < 3; i++ {
		b.Submit(Job{ID: "same", Kind: "echo"})
	}
	if n := b.PendingCount(); n != 1 {
		t.Fatalf("pending = %d, want 1 (duplicate submits must collapse)", n)
	}
}

func TestBrokerDurableInFlightRequeuedAfterCrash(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()

	release := make(chan struct{})
	var mu sync.Mutex
	execs := map[string]int{}
	handlers := map[string]JobHandler{
		"work": func(p json.RawMessage) (any, error) {
			var in struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(p, &in)
			mu.Lock()
			execs[in.ID]++
			first := execs[in.ID] == 1
			mu.Unlock()
			if first {
				<-release // wedge the first execution until the test ends
			}
			return map[string]bool{"done": true}, nil
		},
	}

	b1 := durableBroker(t, db, "127.0.0.1:0")
	w1, err := NewWorker(b1.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	b1.Submit(Job{ID: "stuck", Kind: "work", Payload: json.RawMessage(`{"id":"stuck"}`)})
	waitUntil(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return execs["stuck"] == 1
	}, "job to land on the doomed worker")
	b1.Kill() // broker crashes with the job in flight
	w1.Kill()
	defer close(release)

	// The reopened broker finds the stranded in-flight job, requeues it,
	// and a fresh worker completes it with the attempt budget intact.
	b2 := durableBroker(t, db, "127.0.0.1:0")
	defer b2.Close()
	if n := b2.PendingCount(); n != 1 {
		t.Fatalf("recovered pending = %d, want 1 (in-flight job must requeue)", n)
	}
	if n := b2.Executions("stuck"); n != 1 {
		t.Fatalf("recovered executions = %d, want 1", n)
	}
	w2, err := NewWorker(b2.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, b2, 1, 5*time.Second)
	if got["stuck"].Err != "" {
		t.Fatalf("recovered job failed: %+v", got["stuck"])
	}
	if n := b2.Executions("stuck"); n != 2 {
		t.Fatalf("executions after recovery = %d, want 2", n)
	}
}

func TestBrokerDurableCloseParksUnfinishedJobs(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()
	b1 := durableBroker(t, db, "127.0.0.1:0")
	b1.Submit(Job{ID: "parked", Kind: "echo"})
	b1.Close() // graceful shutdown, not a crash

	// Close must not record a "broker closed" failure for a durable job:
	// the next broker resumes it.
	b2 := durableBroker(t, db, "127.0.0.1:0")
	defer b2.Close()
	if res, ok := b2.Result("parked"); ok {
		t.Fatalf("durable Close recorded a terminal result: %+v", res)
	}
	if n := b2.PendingCount(); n != 1 {
		t.Fatalf("parked job not resumed: pending = %d", n)
	}
}

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestBrokerResubmitOfFinishedJobsNeverBlocks: a promoted broker is
// handed every outstanding job again, most of them already finished.
// Replaying their results must not stall Submit when nobody reads
// Results yet — the fleet's failover resubmits under a lock its own
// consumer waits on — even past the channel's 1024 slots.
func TestBrokerResubmitOfFinishedJobsNeverBlocks(t *testing.T) {
	db := database.MustOpen("")
	defer db.Close()
	const jobs = 1100 // more than the result channel holds
	b1 := durableBroker(t, db, "127.0.0.1:0")
	w, err := NewWorker(b1.Addr(), 8, map[string]JobHandler{
		"echo": func(json.RawMessage) (any, error) { return 1, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	job := func(i int) Job { return Job{ID: fmt.Sprintf("job-%d", i), Kind: "echo"} }
	for i := 0; i < jobs; i++ {
		b1.Submit(job(i))
	}
	collect(t, b1, jobs, 20*time.Second)
	w.Close()
	b1.Kill()

	b2 := durableBroker(t, db, "127.0.0.1:0")
	defer b2.Close()
	submitted := make(chan struct{})
	go func() {
		for i := 0; i < jobs; i++ {
			b2.Submit(job(i))
		}
		close(submitted)
	}()
	select {
	case <-submitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Submit blocked replaying finished jobs to an unread Results channel")
	}
	if got := collect(t, b2, jobs, 5*time.Second); len(got) != jobs {
		t.Fatalf("replayed %d results, want %d", len(got), jobs)
	}
}

// TestBrokerKillLeavesQueueAsCrashFoundIt: after Kill, the sessions
// that drop as their connections die find nothing to requeue. The
// in-flight job's durable record stays "inflight", as a real crash
// would leave it, and the queue-depth gauge does not count a job into
// a queue that no longer runs.
func TestBrokerKillLeavesQueueAsCrashFoundIt(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()
	depth := brokerQueueDepth.Value()

	release := make(chan struct{})
	defer close(release)
	b := durableBroker(t, db, "127.0.0.1:0")
	w, err := NewWorker(b.Addr(), 1, map[string]JobHandler{
		"work": func(json.RawMessage) (any, error) { <-release; return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Submit(Job{ID: "held", Kind: "work"})
	waitUntil(t, func() bool { return len(b.State().InFlight) == 1 }, "job to be leased")
	b.Kill()
	select {
	case <-w.Done(): // the worker saw its connection die
	case <-time.After(5 * time.Second):
		t.Fatal("worker still connected after Kill")
	}
	time.Sleep(20 * time.Millisecond) // let the broker's serve loop unwind

	doc := db.Collection("broker_queue").FindOne(database.Doc{"_id": "held"})
	if doc["state"] != "inflight" {
		t.Fatalf("durable state after Kill = %v, want inflight", doc["state"])
	}
	if got := brokerQueueDepth.Value(); got != depth {
		t.Fatalf("queue-depth gauge %v after Kill, want %v", got, depth)
	}
	if n := b.PendingCount(); n != 0 {
		t.Fatalf("killed broker holds %d pending jobs", n)
	}
}
