package tasks

import (
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/faultinject"
)

func TestWorkerReconnectResumesInFlightJob(t *testing.T) {
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	release := make(chan struct{})
	var count atomic.Int64
	w, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity: 1,
		Handlers: map[string]JobHandler{
			"slow": func(json.RawMessage) (any, error) {
				count.Add(1)
				<-release
				return map[string]bool{"ok": true}, nil
			},
		},
		ID:              "w-resume",
		Reconnect:       true,
		ReconnectPolicy: RetryPolicy{MaxAttempts: 0, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	b.Submit(Job{ID: "j1", Kind: "slow"})
	waitUntil(t, func() bool { return count.Load() == 1 }, "job to start executing")

	// Cut the connection mid-execution. The handler keeps running; the
	// worker redials and resumes the assignment through the session
	// protocol instead of the broker redispatching it.
	w.Kill()
	waitUntil(t, func() bool {
		for _, s := range b.State().Sessions {
			if s.ID == "w-resume" && s.Resumes >= 1 {
				return true
			}
		}
		return false
	}, "broker to resume the session")

	close(release)
	got := collect(t, b, 1, 5*time.Second)
	if got["j1"].Err != "" {
		t.Fatalf("resumed job failed: %+v", got["j1"])
	}
	if count.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (resume must not redispatch)", count.Load())
	}
	if n := b.Executions("j1"); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
}

func TestWorkerReconnectSuppressesDuplicateResult(t *testing.T) {
	dupsBefore := brokerDuplicateResults.Value()

	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Heartbeats are disabled so the worker's first connection performs
	// exactly three writes: hello (1), ready (2), and the result (3).
	// The NetDrop rule delivers that result and then kills the
	// connection before the broker's ack can land — the classic "did the
	// peer process it?" ambiguity. Scoped to the first connection so the
	// resend after reconnect goes through cleanly.
	chaos := faultinject.NewNetChaos(1, faultinject.NetRule{
		Kind:       faultinject.NetDrop,
		After:      2,
		FirstConns: 1,
	})
	// The redial waits until the broker has applied the delivered
	// result. Otherwise the new session's hello can close the old
	// connection before the broker reads the result off it: the resend is
	// then the only copy the broker sees, and nothing is a duplicate.
	var dials atomic.Int64
	dial := func(addr string) (net.Conn, error) {
		if dials.Add(1) > 1 {
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if _, ok := b.Result("j1"); ok {
					break
				}
			}
		}
		return chaos.Dial("tcp", addr)
	}
	var count atomic.Int64
	w, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity: 1,
		Handlers: map[string]JobHandler{
			"echo": func(json.RawMessage) (any, error) { count.Add(1); return map[string]int{"n": 7}, nil },
		},
		HeartbeatInterval: -1,
		ID:                "w-dup",
		Reconnect:         true,
		ReconnectPolicy:   RetryPolicy{MaxAttempts: 0, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2},
		Dial:              dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	b.Submit(Job{ID: "j1", Kind: "echo"})
	got := collect(t, b, 1, 5*time.Second)
	if got["j1"].Err != "" || string(got["j1"].Output) != `{"n":7}` {
		t.Fatalf("result: %+v", got["j1"])
	}
	if chaos.Fired(faultinject.NetDrop) != 1 {
		t.Fatalf("drop did not fire: %+v", chaos.Events())
	}

	// The worker resends the unacked result on the new connection; the
	// broker recognizes it as already applied, counts the duplicate, and
	// acks so the worker stops retaining it.
	waitUntil(t, func() bool {
		return brokerDuplicateResults.Value() >= dupsBefore+1
	}, "broker to count the duplicate result")
	if count.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", count.Load())
	}
	if n := b.Executions("j1"); n != 1 {
		t.Fatalf("executions = %d, want 1 (duplicate must not redispatch)", n)
	}
	// No second delivery on the results channel.
	select {
	case r := <-b.Results():
		t.Fatalf("duplicate result delivered to consumer: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestWorkerReconnectSurvivesBrokerRestart(t *testing.T) {
	b1, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.Addr()

	var count atomic.Int64
	w, err := NewWorkerWithOptions(addr, WorkerOptions{
		Capacity: 2,
		Handlers: map[string]JobHandler{
			"echo": func(json.RawMessage) (any, error) { count.Add(1); return nil, nil },
		},
		ID:              "w-restart",
		Reconnect:       true,
		ReconnectPolicy: RetryPolicy{MaxAttempts: 0, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	b1.Submit(Job{ID: "before", Kind: "echo"})
	collect(t, b1, 1, 5*time.Second)
	b1.Kill()

	// A new broker binds the same address; the worker's redial loop finds
	// it and re-registers without being restarted itself.
	b2, err := NewBrokerWithOptions(addr, BrokerOptions{
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	waitUntil(t, func() bool {
		for _, s := range b2.State().Sessions {
			if s.ID == "w-restart" {
				return true
			}
		}
		return false
	}, "worker to rejoin the restarted broker")

	b2.Submit(Job{ID: "after", Kind: "echo"})
	got := collect(t, b2, 1, 5*time.Second)
	if got["after"].Err != "" {
		t.Fatalf("post-restart job failed: %+v", got["after"])
	}
	if count.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", count.Load())
	}
}

// TestWorkerWithoutIDResumesUnderGeneratedID: a worker given no ID is
// not a second, connection-scoped kind of session. It gets a generated
// identity, and a connection loss mid-job resumes the assignment
// exactly as it does for a named worker.
func TestWorkerWithoutIDResumesUnderGeneratedID(t *testing.T) {
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	release := make(chan struct{})
	var count atomic.Int64
	opts := WorkerOptions{
		Capacity: 1,
		Handlers: map[string]JobHandler{
			"slow": func(json.RawMessage) (any, error) {
				count.Add(1)
				<-release
				return map[string]bool{"ok": true}, nil
			},
		},
		Reconnect:       true,
		ReconnectPolicy: RetryPolicy{MaxAttempts: 0, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2},
	}
	w, err := NewWorkerWithOptions(b.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	other, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{Capacity: 1, Handlers: opts.Handlers})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return b.State().Workers == 2 }, "both sessions to register")
	if s := b.State().Sessions; s[0].ID == "" || s[0].ID == s[1].ID {
		t.Fatalf("generated IDs %q and %q: want two distinct non-empty IDs", s[0].ID, s[1].ID)
	}
	other.Close()
	waitUntil(t, func() bool { return b.State().Workers == 1 }, "the second worker to leave")
	id := b.State().Sessions[0].ID

	b.Submit(Job{ID: "j1", Kind: "slow"})
	waitUntil(t, func() bool { return count.Load() == 1 }, "job to start executing")
	w.Kill()
	waitUntil(t, func() bool {
		st := b.State()
		return len(st.Sessions) == 1 && st.Sessions[0].ID == id && st.Sessions[0].Resumes >= 1
	}, "broker to resume the generated-ID session")

	close(release)
	got := collect(t, b, 1, 5*time.Second)
	if got["j1"].Err != "" {
		t.Fatalf("resumed job failed: %+v", got["j1"])
	}
	if count.Load() != 1 || b.Executions("j1") != 1 {
		t.Fatalf("handler ran %d times over %d executions, want 1 and 1", count.Load(), b.Executions("j1"))
	}
}
