package tasks

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/faultinject"
)

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	a := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.2, Seed: 42}
	b := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.2, Seed: 42}
	for i := 1; i <= 5; i++ {
		da, db := a.Backoff(i), b.Backoff(i)
		if da != db {
			t.Fatalf("same seed, retry %d: %v != %v", i, da, db)
		}
		base := 10 * time.Millisecond << (i - 1)
		if da < base || da > base+base/5 {
			t.Fatalf("retry %d jittered delay %v outside [%v, %v]", i, da, base, base+base/5)
		}
	}
}

func TestDefaultRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("missing artifact"), false},
		{errors.New("bad num_cpus=zero"), false},
		{errors.New("transient network blip"), true},
		{errors.New("tasks: job panicked: kaboom"), true},
		{errors.New("lease expired after 1 attempts"), true},
		{errors.New("worker lost"), true},
		{errors.New("read tcp: connection reset by peer"), true},
		{errors.New("write: broken pipe"), true},
		{errors.New("unexpected EOF"), true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("wrapped: %w", &faultinject.TransientError{Site: "x", Hit: 1}), true},
	}
	for _, c := range cases {
		if got := DefaultRetryable(c.err); got != c.want {
			t.Fatalf("DefaultRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestZeroRetryPolicyDisabled(t *testing.T) {
	var p RetryPolicy
	if p.Enabled() {
		t.Fatal("zero policy must not enable retries")
	}
	if !DefaultRetryPolicy().Enabled() {
		t.Fatal("default policy must enable retries")
	}
}

func TestPoolRetriesTransientFault(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	in := faultinject.New(1, faultinject.Rule{Site: "pool.execute", Kind: faultinject.Transient})
	p.mu.Lock()
	p.inject = in
	p.mu.Unlock()
	var ran atomic.Int64
	f, err := p.ApplyAsync(TaskFunc{Name: "flaky", Fn: func(context.Context) error {
		ran.Add(1)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if werr := f.Wait(context.Background()); werr != nil {
		t.Fatalf("flaky task did not recover: %v", werr)
	}
	if f.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", f.Attempts())
	}
	if ran.Load() != 1 {
		t.Fatalf("task body ran %d times, want 1 (first attempt faulted before execution)", ran.Load())
	}
	if evs := in.Events(); len(evs) != 1 || evs[0].Kind != faultinject.Transient {
		t.Fatalf("events = %+v", evs)
	}
}

func TestPoolDoesNotRetryPermanentErrors(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	perm := errors.New("bad config: unknown cpu model")
	var ran atomic.Int64
	f, _ := p.ApplyAsync(TaskFunc{Name: "broken", Fn: func(context.Context) error {
		ran.Add(1)
		return perm
	}})
	if got := f.Wait(context.Background()); !errors.Is(got, perm) {
		t.Fatalf("error = %v", got)
	}
	if f.Attempts() != 1 || ran.Load() != 1 {
		t.Fatalf("permanent error retried: attempts=%d ran=%d", f.Attempts(), ran.Load())
	}
}

func TestPoolRetriesCrashedSimulation(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	var calls atomic.Int64
	f, _ := p.ApplyAsync(TaskFunc{Name: "crashy", Fn: func(context.Context) error {
		if calls.Add(1) == 1 {
			panic("segfault in gem5")
		}
		return nil
	}})
	if err := f.Wait(context.Background()); err != nil {
		t.Fatalf("crash not recovered: %v", err)
	}
	if f.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", f.Attempts())
	}
}

func TestPoolExhaustsRetryBudget(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	var calls atomic.Int64
	f, _ := p.ApplyAsync(TaskFunc{Name: "doomed", Fn: func(context.Context) error {
		calls.Add(1)
		return errors.New("transient but persistent")
	}})
	if err := f.Wait(context.Background()); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if f.Attempts() != 3 || calls.Load() != 3 {
		t.Fatalf("attempts=%d calls=%d, want 3", f.Attempts(), calls.Load())
	}
}

func TestBrokerRetriesTransientHandlerFailure(t *testing.T) {
	var calls atomic.Int64
	handlers := map[string]JobHandler{
		"flaky": func(json.RawMessage) (any, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("transient disk hiccup")
			}
			return map[string]bool{"ok": true}, nil
		},
	}
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	w, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	b.Submit(Job{ID: "j", Kind: "flaky"})
	got := collect(t, b, 1, 5*time.Second)
	if got["j"].Err != "" {
		t.Fatalf("flaky job not recovered: %+v", got["j"])
	}
	if n := b.Executions("j"); n != 2 {
		t.Fatalf("executions = %d, want 2", n)
	}
}

func TestBrokerExhaustsRetryBudget(t *testing.T) {
	var calls atomic.Int64
	handlers := map[string]JobHandler{
		"doomed": func(json.RawMessage) (any, error) {
			calls.Add(1)
			return nil, errors.New("transient forever")
		},
	}
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	w, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	b.Submit(Job{ID: "j", Kind: "doomed"})
	got := collect(t, b, 1, 5*time.Second)
	if got["j"].Err == "" {
		t.Fatal("exhausted job reported success")
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", calls.Load())
	}
}

func TestBrokerDoesNotRetryPermanentFailure(t *testing.T) {
	var calls atomic.Int64
	handlers := map[string]JobHandler{
		"bad": func(json.RawMessage) (any, error) {
			calls.Add(1)
			return nil, errors.New("missing benchmark param")
		},
	}
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	w, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	b.Submit(Job{ID: "j", Kind: "bad"})
	got := collect(t, b, 1, 5*time.Second)
	if got["j"].Err != "missing benchmark param" {
		t.Fatalf("result: %+v", got["j"])
	}
	if calls.Load() != 1 {
		t.Fatalf("permanent failure retried %d times", calls.Load())
	}
}

// TestBrokerLeaseExpiryRetriesElsewhere is the distributed half of the
// recovery story: a job wedged on one worker outlives its lease, is
// revoked, and completes on a second worker. The wedged attempt's late
// result must be dropped, not double-delivered.
func TestBrokerLeaseExpiryRetriesElsewhere(t *testing.T) {
	stall := make(chan struct{})
	var calls atomic.Int64
	handlers := map[string]JobHandler{
		"work": func(json.RawMessage) (any, error) {
			if calls.Add(1) == 1 {
				<-stall // first assignment wedges past its lease
				return nil, errors.New("stale attempt finished late")
			}
			return map[string]string{"by": "retry"}, nil
		},
	}
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Lease:         100 * time.Millisecond,
		CheckInterval: 10 * time.Millisecond,
		Retry:         RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	w1, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w1.Close)
	b.Submit(Job{ID: "wedged", Kind: "work"})
	time.Sleep(30 * time.Millisecond) // land the job on w1
	w2, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w2.Close)

	got := collect(t, b, 1, 5*time.Second)
	if got["wedged"].Err != "" || string(got["wedged"].Output) != `{"by":"retry"}` {
		t.Fatalf("lease-expired job not recovered elsewhere: %+v", got["wedged"])
	}
	if n := b.Executions("wedged"); n != 2 {
		t.Fatalf("executions = %d, want 2", n)
	}

	// Unwedge the first attempt; its stale result must not overwrite the
	// recorded success or appear on the results channel.
	close(stall)
	time.Sleep(50 * time.Millisecond)
	if res, ok := b.Result("wedged"); !ok || res.Err != "" {
		t.Fatalf("stale result clobbered the retry: %+v", res)
	}
	select {
	case r := <-b.Results():
		t.Fatalf("stale result delivered: %+v", r)
	default:
	}
}

// TestBrokerLeaseExpiryExhaustsBudget verifies a job that wedges on
// every worker eventually fails terminally instead of looping forever.
func TestBrokerLeaseExpiryExhaustsBudget(t *testing.T) {
	stall := make(chan struct{})
	handlers := map[string]JobHandler{
		"work": func(json.RawMessage) (any, error) { <-stall; return nil, nil },
	}
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Lease:         50 * time.Millisecond,
		CheckInterval: 5 * time.Millisecond,
		Retry:         RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	w, err := NewWorker(b.Addr(), 2, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	// Cleanups run last-in-first-out: unwedge the handlers before
	// w.Close waits for them.
	t.Cleanup(func() { close(stall) })
	b.Submit(Job{ID: "hopeless", Kind: "work"})
	got := collect(t, b, 1, 5*time.Second)
	if got["hopeless"].Err == "" {
		t.Fatal("permanently wedged job reported success")
	}
	if n := b.Executions("hopeless"); n != 2 {
		t.Fatalf("executions = %d, want 2", n)
	}
}

// TestBrokerHeartbeatLossRevokesWorker wedges a worker's heartbeat
// goroutine (connection stays open — no TCP FIN) and checks the broker
// notices, revokes the worker, and the job completes elsewhere.
func TestBrokerHeartbeatLossRevokesWorker(t *testing.T) {
	in := faultinject.New(7, faultinject.Rule{Site: "worker.heartbeat", Kind: faultinject.Hang, Count: 1 << 20})
	t.Cleanup(in.Release)
	stall := make(chan struct{})
	var calls atomic.Int64
	handlers := map[string]JobHandler{
		"work": func(json.RawMessage) (any, error) {
			if calls.Add(1) == 1 {
				<-stall
			}
			return nil, nil
		},
	}
	t.Cleanup(func() { close(stall) })
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		HeartbeatTimeout: 120 * time.Millisecond,
		CheckInterval:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	w1, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity:          1,
		Handlers:          handlers,
		HeartbeatInterval: 20 * time.Millisecond,
		Injector:          in,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = w1 // revoked by the broker; Close would block on the wedged job
	b.Submit(Job{ID: "j", Kind: "work"})
	time.Sleep(30 * time.Millisecond) // land the job on the silent worker
	w2, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity:          1,
		Handlers:          handlers,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w2.Close)
	got := collect(t, b, 1, 5*time.Second)
	if got["j"].Err != "" {
		t.Fatalf("job on silent worker not recovered: %+v", got["j"])
	}
	if in.Hits("worker.heartbeat") == 0 {
		t.Fatal("heartbeat fault never armed — test exercised nothing")
	}
}

// TestBrokerCloseFailsInFlightJobs is the Close/in-flight race fix: a
// broker closed with jobs assigned and queued must record a terminal
// failure for each of them, and no result-delivering goroutine may hang.
func TestBrokerCloseFailsInFlightJobs(t *testing.T) {
	stall := make(chan struct{})
	handlers := map[string]JobHandler{
		"work": func(json.RawMessage) (any, error) { <-stall; return nil, nil },
	}
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"assigned", "queued-1", "queued-2"}
	for _, id := range ids {
		b.Submit(Job{ID: id, Kind: "work"})
	}
	time.Sleep(30 * time.Millisecond) // "assigned" lands on w, rest stay pending
	b.Close()
	close(stall)
	_ = w

	for _, id := range ids {
		res, ok := b.Result(id)
		if !ok {
			t.Fatalf("%s: no terminal result after Close", id)
		}
		if res.Err != "broker closed" {
			t.Fatalf("%s: err = %q, want \"broker closed\"", id, res.Err)
		}
	}
	// Close must be idempotent, and a closed broker refuses new jobs.
	b.Close()
	if err := b.Submit(Job{ID: "late", Kind: "work"}); err == nil {
		t.Fatal("a closed broker accepted a job")
	}
}

// TestBrokerRequeueUnderConcurrentSubmits kills a worker while several
// goroutines are still submitting jobs: nothing may be lost and every
// job must reach a successful result on the surviving worker.
func TestBrokerRequeueUnderConcurrentSubmits(t *testing.T) {
	const nJobs = 40
	stall := make(chan struct{})
	var phase atomic.Int64
	handlers := map[string]JobHandler{
		"work": func(json.RawMessage) (any, error) {
			if phase.Load() == 0 {
				<-stall
			}
			return nil, nil
		},
	}
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	w1, err := NewWorker(b.Addr(), 4, handlers)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < nJobs/4; i++ {
				b.Submit(Job{ID: fmt.Sprintf("g%d-j%d", g, i), Kind: "work"})
				time.Sleep(time.Millisecond)
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond) // let some jobs land on w1
	phase.Store(1)
	_ = w1.conn.Close() // machine loss mid-submission
	close(stall)
	w2, err := NewWorker(b.Addr(), 4, handlers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w2.Close)
	wg.Wait()

	got := collect(t, b, nJobs, 10*time.Second)
	for id, r := range got {
		if r.Err != "" {
			t.Fatalf("%s lost or failed: %+v", id, r)
		}
	}
}
