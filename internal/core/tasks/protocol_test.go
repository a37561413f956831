package tasks

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/faultinject"
)

// rawDial opens a raw protocol connection to the broker and returns the
// conn plus a scanner over the broker's replies.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn, bufio.NewScanner(conn)
}

// TestBrokerRejectsMalformedHello: a first frame that is not JSON, not
// a hello, or a hello without a worker ID is answered with a protocol
// error and a closed connection. There is one kind of worker session,
// and it is named.
func TestBrokerRejectsMalformedHello(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for _, first := range []string{
		"{this is not json",
		`{"type":"heartbeat","worker":"w1"}`,
		`{"type":"hello","capacity":1}`,
	} {
		conn, sc := rawDial(t, b.Addr())
		if _, err := conn.Write([]byte(first + "\n")); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("%s: no protocol-error reply before close", first)
		}
		var reply Envelope
		if err := json.Unmarshal(sc.Bytes(), &reply); err != nil {
			t.Fatalf("%s: reply not JSON: %s", first, sc.Bytes())
		}
		if reply.Type != "error" || reply.Error == "" {
			t.Fatalf("%s: reply = %+v, want protocol error", first, reply)
		}
		if sc.Scan() {
			t.Fatalf("%s: broker kept the connection open after protocol error: %s", first, sc.Bytes())
		}
	}
	if n := b.State().Workers; n != 0 {
		t.Fatalf("%d sessions registered from rejected hellos", n)
	}
}

func TestBrokerSurvivesMalformedFrameMidSession(t *testing.T) {
	errsBefore := brokerProtocolErrors.Value()
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// A well-formed hello followed by garbage: the broker must answer
	// with an error frame and close this connection only.
	conn, sc := rawDial(t, b.Addr())
	if _, err := conn.Write([]byte(`{"type":"hello","worker":"raw","capacity":1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("}}}garbage{{{\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("no protocol-error reply")
	}
	var reply Envelope
	if err := json.Unmarshal(sc.Bytes(), &reply); err != nil || reply.Type != "error" {
		t.Fatalf("reply = %s", sc.Bytes())
	}
	if sc.Scan() {
		t.Fatal("connection not closed after protocol error")
	}
	waitUntil(t, func() bool {
		return brokerProtocolErrors.Value() >= errsBefore+1
	}, "protocol-error counter")

	// The broker still serves real workers afterwards.
	w, err := NewWorker(b.Addr(), 1, map[string]JobHandler{
		"echo": func(json.RawMessage) (any, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b.Submit(Job{ID: "after-garbage", Kind: "echo"})
	got := collect(t, b, 1, 5*time.Second)
	if got["after-garbage"].Err != "" {
		t.Fatalf("job after protocol error: %+v", got["after-garbage"])
	}
}

func TestBrokerRequeuesAfterTornResultFrame(t *testing.T) {
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
		Retry:         RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The first worker's connection tears mid-result: with heartbeats
	// off its writes are hello (1), ready (2) and the result (3), and
	// the NetTruncate rule cuts that result frame in half. The broker
	// sees a torn line, answers with a protocol error down the dead
	// connection, and routes the job through the clean requeue path.
	chaos := faultinject.NewNetChaos(7, faultinject.NetRule{
		Kind:       faultinject.NetTruncate,
		After:      2,
		FirstConns: 1,
	})
	var count atomic.Int64
	handlers := map[string]JobHandler{
		"echo": func(json.RawMessage) (any, error) { count.Add(1); return map[string]int{"ok": 1}, nil },
	}
	w1, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity:          1,
		Handlers:          handlers,
		HeartbeatInterval: -1,
		Dial:              chaos.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()

	b.Submit(Job{ID: "torn", Kind: "echo"})
	waitUntil(t, func() bool { return chaos.Fired(faultinject.NetTruncate) == 1 }, "truncate to fire")

	// A clean second worker picks up the requeued execution.
	w2, err := NewWorker(b.Addr(), 1, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := collect(t, b, 1, 5*time.Second)
	if got["torn"].Err != "" || string(got["torn"].Output) != `{"ok":1}` {
		t.Fatalf("torn-frame job: %+v", got["torn"])
	}
	if count.Load() != 2 {
		t.Fatalf("executions = %d, want 2 (torn attempt + clean retry)", count.Load())
	}
}

func TestBrokerResultBurstIsLossless(t *testing.T) {
	// Far more results than the 1024-slot notification channel, produced
	// faster than the deliberately slow consumer drains them: every
	// result must still arrive exactly once, and worker read loops must
	// not wedge behind the slow consumer.
	const jobs = 1500
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w, err := NewWorker(b.Addr(), 64, map[string]JobHandler{
		"echo": func(p json.RawMessage) (any, error) { return json.RawMessage(p), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < jobs; i++ {
		b.Submit(Job{ID: fmt.Sprintf("burst-%d", i), Kind: "echo",
			Payload: json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))})
	}
	got := map[string]JobResult{}
	deadline := time.After(60 * time.Second)
	for len(got) < jobs {
		select {
		case r := <-b.Results():
			if _, dup := got[r.ID]; dup {
				t.Fatalf("duplicate delivery of %s", r.ID)
			}
			got[r.ID] = r
			if len(got)%100 == 0 {
				time.Sleep(time.Millisecond) // slow consumer
			}
		case <-deadline:
			t.Fatalf("lost results: %d/%d delivered", len(got), jobs)
		}
	}
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("burst-%d", i)
		if r, ok := got[id]; !ok || r.Err != "" {
			t.Fatalf("job %s: %+v ok=%v", id, got[id], ok)
		}
	}
}
