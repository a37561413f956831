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
)

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		_, err := p.ApplyAsync(TaskFunc{Name: fmt.Sprintf("t%d", i), Fn: func(context.Context) error {
			count.Add(1)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", count.Load())
	}
}

func TestPoolBoundedParallelism(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var cur, peak atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		if _, err := p.ApplyAsync(TaskFunc{Name: "t", Fn: func(context.Context) error {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Fatalf("peak parallelism %d exceeds 3 workers", peak.Load())
	}
}

func TestPoolErrorPropagation(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	boom := errors.New("simulation exploded")
	f, err := p.ApplyAsync(TaskFunc{Name: "bad", Fn: func(context.Context) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Wait(context.Background()); !errors.Is(got, boom) {
		t.Fatalf("future error = %v", got)
	}
	if err := p.WaitAll(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("WaitAll = %v", err)
	}
}

func TestPoolSurvivesPanics(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	f, err := p.ApplyAsync(TaskFunc{Name: "panicky", Fn: func(context.Context) error {
		panic("kaboom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Wait(context.Background()); got == nil {
		t.Fatal("panic not converted to error")
	}
	// The worker must still be alive.
	f2, err := p.ApplyAsync(TaskFunc{Name: "after", Fn: func(context.Context) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Wait(context.Background()); got != nil {
		t.Fatalf("pool dead after panic: %v", got)
	}
}

func TestPoolClosedRejectsNewTasks(t *testing.T) {
	p := NewPool(1)
	p.Close()
	if _, err := p.ApplyAsync(TaskFunc{Name: "late", Fn: func(context.Context) error { return nil }}); err == nil {
		t.Fatal("closed pool accepted a task")
	}
}

func TestFutureDone(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	release := make(chan struct{})
	f, err := p.ApplyAsync(TaskFunc{Name: "slow", Fn: func(context.Context) error {
		<-release
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Done() {
		t.Fatal("future done before task ran")
	}
	close(release)
	if err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !f.Done() {
		t.Fatal("future not done after completion")
	}
}

func startBrokerWorkers(t *testing.T, nworkers, capacity int, handlers map[string]JobHandler) (*Broker, []*Worker) {
	t.Helper()
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	var ws []*Worker
	for i := 0; i < nworkers; i++ {
		w, err := NewWorker(b.Addr(), capacity, handlers)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return b, ws
}

func collect(t *testing.T, b *Broker, n int, timeout time.Duration) map[string]JobResult {
	t.Helper()
	got := map[string]JobResult{}
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case r := <-b.Results():
			got[r.ID] = r
		case <-deadline:
			t.Fatalf("only %d/%d results before timeout", len(got), n)
		}
	}
	return got
}

func TestBrokerDistributesJobs(t *testing.T) {
	var count atomic.Int64
	handlers := map[string]JobHandler{
		"echo": func(p json.RawMessage) (any, error) {
			count.Add(1)
			return map[string]int{"ok": 1}, nil
		},
	}
	b, _ := startBrokerWorkers(t, 3, 2, handlers)
	for i := 0; i < 30; i++ {
		b.Submit(Job{ID: fmt.Sprintf("job-%d", i), Kind: "echo",
			Payload: json.RawMessage(`{}`)})
	}
	got := collect(t, b, 30, 5*time.Second)
	for id, r := range got {
		if r.Err != "" {
			t.Fatalf("%s failed: %s", id, r.Err)
		}
		if string(r.Output) != `{"ok":1}` {
			t.Fatalf("%s output = %s", id, r.Output)
		}
	}
	if count.Load() != 30 {
		t.Fatalf("handlers ran %d times", count.Load())
	}
}

func TestBrokerReportsHandlerErrors(t *testing.T) {
	handlers := map[string]JobHandler{
		"fail": func(json.RawMessage) (any, error) { return nil, errors.New("bad run") },
	}
	b, _ := startBrokerWorkers(t, 1, 1, handlers)
	b.Submit(Job{ID: "j1", Kind: "fail"})
	b.Submit(Job{ID: "j2", Kind: "nonexistent"})
	got := collect(t, b, 2, 5*time.Second)
	if got["j1"].Err != "bad run" {
		t.Fatalf("j1: %+v", got["j1"])
	}
	if got["j2"].Err == "" {
		t.Fatal("unknown kind succeeded")
	}
}

func TestBrokerPayloadDelivery(t *testing.T) {
	type params struct {
		Benchmark string `json:"benchmark"`
		Cores     int    `json:"cores"`
	}
	var mu sync.Mutex
	var seen []params
	handlers := map[string]JobHandler{
		"run": func(p json.RawMessage) (any, error) {
			var got params
			if err := json.Unmarshal(p, &got); err != nil {
				return nil, err
			}
			mu.Lock()
			seen = append(seen, got)
			mu.Unlock()
			return got, nil
		},
	}
	b, _ := startBrokerWorkers(t, 1, 1, handlers)
	payload, err := json.Marshal(params{Benchmark: "dedup", Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	b.Submit(Job{ID: "j", Kind: "run", Payload: payload})
	collect(t, b, 1, 5*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].Benchmark != "dedup" || seen[0].Cores != 8 {
		t.Fatalf("payload: %+v", seen)
	}
}

func TestBrokerRequeuesOnWorkerLoss(t *testing.T) {
	stall := make(chan struct{})
	var phase atomic.Int64
	handlers := map[string]JobHandler{
		"work": func(json.RawMessage) (any, error) {
			if phase.Load() == 0 {
				<-stall // first worker hangs until killed
			}
			return nil, nil
		},
	}
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w1, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	b.Submit(Job{ID: "sticky", Kind: "work"})
	time.Sleep(50 * time.Millisecond) // let the job land on w1
	phase.Store(1)
	w1.Kill() // simulate machine loss
	close(stall)

	w2, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, b, 1, 5*time.Second)
	if got["sticky"].Err != "" {
		t.Fatalf("requeued job failed: %+v", got["sticky"])
	}
}

func TestBrokerQueuesBeyondCapacity(t *testing.T) {
	release := make(chan struct{})
	handlers := map[string]JobHandler{
		"wait": func(json.RawMessage) (any, error) { <-release; return nil, nil },
	}
	b, _ := startBrokerWorkers(t, 1, 2, handlers)
	for i := 0; i < 6; i++ {
		b.Submit(Job{ID: fmt.Sprintf("j%d", i), Kind: "wait"})
	}
	time.Sleep(50 * time.Millisecond)
	if n := b.PendingCount(); n != 4 {
		t.Fatalf("pending = %d, want 4 (capacity 2 in flight)", n)
	}
	close(release)
	collect(t, b, 6, 5*time.Second)
}

// TestBrokerStopClosesResults: Close and Kill close Results once the
// deliveries still in flight have let go, so a consumer ranging over
// the channel drains what was buffered and terminates. 1200 unread
// results overfill the channel's 1024 slots, which leaves deliverers
// blocked on the send at the moment the broker stops.
func TestBrokerStopClosesResults(t *testing.T) {
	for name, stop := range map[string]func(*Broker){"Close": (*Broker).Close, "Kill": (*Broker).Kill} {
		t.Run(name, func(t *testing.T) {
			b, _ := startBrokerWorkers(t, 2, 4, map[string]JobHandler{
				"echo": func(json.RawMessage) (any, error) { return 1, nil },
			})
			const jobs = 1200
			for i := 0; i < jobs; i++ {
				b.Submit(Job{ID: fmt.Sprintf("job-%d", i), Kind: "echo"})
			}
			waitUntil(t, func() bool { return b.State().Results == jobs }, "every result recorded")
			stop(b)
			drained := make(chan int)
			go func() {
				n := 0
				for r := range b.Results() {
					if r.ID == "" {
						t.Error("received a zero result")
					}
					n++
				}
				drained <- n
			}()
			select {
			case n := <-drained:
				if n != cap(b.resCh) {
					t.Fatalf("drained %d results, want the %d that were buffered", n, cap(b.resCh))
				}
			case <-time.After(time.Second):
				t.Fatal("Results still open 1s after the broker stopped")
			}
		})
	}
}
