package tasks

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/database"
	"gem5art/internal/database/dbtest"
	"gem5art/internal/database/storage"
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
	if n := b1.State().Pending; n != 10 {
		t.Fatalf("pending before crash = %d", n)
	}
	b1.Kill()

	b2 := durableBroker(t, db, "127.0.0.1:0")
	defer b2.Close()
	if n := b2.State().Pending; n != 10 {
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
	if n := b2.State().Pending; n != 0 {
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
	if n := b.State().Pending; n != 1 {
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
	// and a fresh worker completes it with the attempt budget intact. A
	// dispatch writes nothing, so the attempt the dead worker held is
	// forgiven: the crash hid it.
	b2 := durableBroker(t, db, "127.0.0.1:0")
	defer b2.Close()
	if n := b2.State().Pending; n != 1 {
		t.Fatalf("recovered pending = %d, want 1 (in-flight job must requeue)", n)
	}
	if n := b2.Executions("stuck"); n != 0 {
		t.Fatalf("recovered executions = %d, want 0 (the unwritten attempt is forgiven)", n)
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
	if n := b2.Executions("stuck"); n != 1 {
		t.Fatalf("executions after recovery = %d, want 1", n)
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
	if n := b2.State().Pending; n != 1 {
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
// in-flight job's durable record stays "pending", as its submit wrote
// it and a real crash would leave it, and the queue-depth gauge does
// not count a job into a queue that no longer runs.
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
	if doc["state"] != "pending" {
		t.Fatalf("durable state after Kill = %v, want pending", doc["state"])
	}
	if got := brokerQueueDepth.Value(); got != depth {
		t.Fatalf("queue-depth gauge %v after Kill, want %v", got, depth)
	}
	if n := b.State().Pending; n != 0 {
		t.Fatalf("killed broker holds %d pending jobs", n)
	}
}

// countedStore opens a journaled store (fsync on every commit, the
// default policy) whose journal writes the returned JournalFS counts.
func countedStore(tb testing.TB) (database.Store, *dbtest.JournalFS) {
	tb.Helper()
	fs := dbtest.NewJournalFS(storage.OSFS)
	opts := database.DefaultOptions()
	opts.FS = fs
	db, err := database.OpenWith(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	return db, fs
}

// TestBrokerDurableQueueWrites pins what a job costs the durable
// queue: its submit and its result are each one fsynced record, and a
// dispatch writes nothing. A worker that reconnects mid-job costs one
// record more, the requeue its dropped session writes; adopting the
// job back on its resume writes nothing.
func TestBrokerDurableQueueWrites(t *testing.T) {
	db, fs := countedStore(t)
	b := durableBroker(t, db, "127.0.0.1:0")
	defer b.Close()
	release := make(chan struct{})
	var started atomic.Int64
	w, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity: 1,
		Handlers: map[string]JobHandler{
			"echo": func(json.RawMessage) (any, error) { return 1, nil },
			"slow": func(json.RawMessage) (any, error) { started.Add(1); <-release; return 1, nil },
		},
		ID:              "w-writes",
		Reconnect:       true,
		ReconnectPolicy: RetryPolicy{MaxAttempts: 0, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before w.Close, which waits for the handler
	commits := func(since int) int {
		records, syncs := fs.Counts(QueueCollection)
		if records != syncs {
			t.Fatalf("%d records in %d fsyncs: want one fsync per record", records, syncs)
		}
		return records - since
	}

	n := commits(0)
	b.Submit(Job{ID: "j1", Kind: "echo"})
	collect(t, b, 1, 5*time.Second)
	if got := commits(n); got != 2 {
		t.Fatalf("one job committed %d records, want 2 (submit, done)", got)
	}

	n = commits(0)
	b.Submit(Job{ID: "j2", Kind: "slow"})
	waitUntil(t, func() bool { return started.Load() == 1 }, "job to start executing")
	if got := commits(n); got != 1 {
		t.Fatalf("submit and dispatch committed %d records, want 1", got)
	}
	n = commits(0)
	w.Kill()
	waitUntil(t, func() bool {
		st := b.State()
		return len(st.Sessions) == 1 && st.Sessions[0].Resumes == 1 && len(st.InFlight) == 1
	}, "the broker to adopt the resumed job")
	if got := commits(n); got != 1 {
		t.Fatalf("a reconnect mid-job committed %d records, want 1 (the requeue)", got)
	}
	unblock()
	collect(t, b, 1, 5*time.Second)
}

// TestBrokerDurableResumeAcrossCrash: a broker crashes while a worker
// runs a job, and a new broker comes up on the same address over the
// same store. The crash hid the dispatch — a dispatch writes nothing —
// so the store counts one attempt fewer than the worker holds. The
// worker's resume must still be adopted, and the job must finish on
// its one execution.
func TestBrokerDurableResumeAcrossCrash(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()
	opts := BrokerOptions{DB: db} // no lease: only the resume can finish the job
	b1, err := NewBrokerWithOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()

	release := make(chan struct{})
	var count atomic.Int64
	w, err := NewWorkerWithOptions(addr, WorkerOptions{
		Capacity: 1,
		Handlers: map[string]JobHandler{
			"slow": func(json.RawMessage) (any, error) {
				count.Add(1)
				<-release
				return map[string]bool{"ok": true}, nil
			},
		},
		ID:              "w-crash",
		Reconnect:       true,
		ReconnectPolicy: RetryPolicy{MaxAttempts: 0, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before w.Close, which waits for the handler

	b1.Submit(Job{ID: "j1", Kind: "slow"})
	waitUntil(t, func() bool { return count.Load() == 1 }, "job to start executing")
	b1.Kill()

	b2, err := NewBrokerWithOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	waitUntil(t, func() bool {
		st := b2.State()
		return len(st.Sessions) == 1 && st.Sessions[0].Resumes == 1
	}, "the restarted broker to adopt the resumed job")

	unblock()
	got := collect(t, b2, 1, 5*time.Second)
	if got["j1"].Err != "" {
		t.Fatalf("resumed job failed: %+v", got["j1"])
	}
	if count.Load() != 1 || b2.Executions("j1") != 1 {
		t.Fatalf("handler ran %d times over %d executions, want 1 and 1", count.Load(), b2.Executions("j1"))
	}
}

// BenchmarkDurableDispatch runs no-op jobs through a broker whose queue
// is on a journaled store (fsync on every commit) and one TCP worker,
// and reports the wall time and the queue's fsyncs per job.
func BenchmarkDurableDispatch(b *testing.B) {
	db, fs := countedStore(b)
	br, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{DB: db})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	w, err := NewWorker(br.Addr(), 4, map[string]JobHandler{
		"noop": func(json.RawMessage) (any, error) { return nil, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	_, syncs0 := fs.Counts(QueueCollection)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Submit(Job{ID: fmt.Sprintf("job-%d", i), Kind: "noop", Payload: json.RawMessage(`{}`)})
	}
	for i := 0; i < b.N; i++ {
		if res := <-br.Results(); res.Err != "" {
			b.Fatalf("job %s: %s", res.ID, res.Err)
		}
	}
	b.StopTimer()
	_, syncs := fs.Counts(QueueCollection)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/job")
	b.ReportMetric(float64(syncs-syncs0)/float64(b.N), "fsyncs/job")
}
