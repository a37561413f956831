package tasks

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestPanicBecomesStructuredRetryableFailure: a handler panic is
// recovered into a job failure that (a) the retry classifier treats as
// retryable, (b) carries a FailureBundle with the stack, run key, and
// fired-fault log, and (c) leaves the worker alive for the retry.
func TestPanicBecomesStructuredRetryableFailure(t *testing.T) {
	b, err := NewBrokerWithOptions("127.0.0.1:0", BrokerOptions{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Multiplier: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	attempts := 0
	handlers := map[string]JobHandler{
		"sim": func(payload json.RawMessage) (any, error) {
			attempts++
			if attempts == 1 {
				panic("index out of range in window barrier")
			}
			return map[string]string{"ok": "true"}, nil
		},
	}
	w, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity: 1,
		Handlers: handlers,
		ID:       "w1",
		FaultLog: func() []string { return []string{"disk:fsync-fail:runs.wal"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	b.Submit(Job{ID: "j1", Kind: "sim", Payload: json.RawMessage(`{"name":"run-42"}`)})

	select {
	case res := <-b.Results():
		if res.Err != "" {
			t.Fatalf("job did not recover via retry: %s", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the retried job")
	}
	if attempts != 2 {
		t.Fatalf("handler ran %d times, want 2 (panic then retry)", attempts)
	}
}

// TestPanicBundleDeliveredInResult: with retries disabled, the failed
// result's error carries the parseable bundle — stack, run key, and
// the fault log — across the wire.
func TestPanicBundleDeliveredInResult(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	handlers := map[string]JobHandler{
		"sim": func(json.RawMessage) (any, error) { panic("nil map write in stats merge") },
	}
	w, err := NewWorkerWithOptions(b.Addr(), WorkerOptions{
		Capacity: 1,
		Handlers: handlers,
		ID:       "w2",
		FaultLog: func() []string { return []string{"disk:torn-rename:cpt.1.tmp"} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	b.Submit(Job{ID: "j2", Kind: "sim", Payload: json.RawMessage(`{"name":"run-13"}`)})
	select {
	case res := <-b.Results():
		if res.Err == "" {
			t.Fatal("panicking job reported success")
		}
		bundle, ok := parseFailureBundle(res.Err)
		if !ok {
			t.Fatalf("no bundle in result error: %q", res.Err)
		}
		if bundle.Reason != "panic" || bundle.RunKey != "run-13" ||
			!strings.Contains(bundle.Stack, "goroutine") ||
			len(bundle.Faults) != 1 || bundle.Faults[0] != "disk:torn-rename:cpt.1.tmp" {
			t.Fatalf("bundle incomplete: %+v", bundle)
		}
		if bundle.JobID != "j2" || bundle.Worker != "w2" {
			t.Fatalf("bundle identity wrong: %+v", bundle)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the failed result")
	}
}

// TestFailureBundleRoundTrip: the bundle survives the wire encoding and
// the head line keeps the retry marker.
func TestFailureBundleRoundTrip(t *testing.T) {
	b := &FailureBundle{
		Reason:  "panic",
		Error:   "slice bounds out of range",
		Stack:   "goroutine 7 [running]:\nexample()\n\t/x.go:10",
		JobID:   "t1/launch/3",
		Kind:    "sim",
		Attempt: 2,
		Worker:  "w-9",
		RunKey:  "npb-cg-x8",
		Faults:  []string{"disk:enospc:files"},
	}
	msg := b.Encode()
	if !strings.Contains(strings.Split(msg, "\n")[0], "panicked") {
		t.Fatalf("head line lost the retry marker: %q", msg)
	}
	if !(RetryPolicy{}).RetryableMessage(msg) {
		t.Fatal("encoded panic failure not classified retryable")
	}
	got, ok := parseFailureBundle(msg)
	if !ok {
		t.Fatalf("bundle did not parse back from %q", msg)
	}
	if got.RunKey != b.RunKey || got.Stack != b.Stack || len(got.Faults) != 1 {
		t.Fatalf("bundle round-trip mismatch: %+v", got)
	}
	if _, ok := parseFailureBundle("plain error, no bundle"); ok {
		t.Fatal("plain error parsed as a bundle")
	}
}

// TestRunKeyFromPayload covers the payload shapes launch produces.
func TestRunKeyFromPayload(t *testing.T) {
	for raw, want := range map[string]string{
		`{"name":"npb-cg"}`:            "npb-cg",
		`{"key":"abc123"}`:             "abc123",
		`{"run_key":"rk","name":"n"}`:  "rk",
		`{"cores":4}`:                  "",
		`not json`:                     "",
		``:                             "",
		`{"id":"run-7","cores":1}`:     "run-7",
		`{"run":"alpha","other":true}`: "alpha",
	} {
		if got := runKeyFromPayload(json.RawMessage(raw)); got != want {
			t.Fatalf("runKeyFromPayload(%q) = %q, want %q", raw, got, want)
		}
	}
}

// parseFailureBundle extracts the structured bundle from a result error
// string, reporting false for plain errors without one.
func parseFailureBundle(msg string) (*FailureBundle, bool) {
	i := strings.Index(msg, bundleMarker)
	if i < 0 {
		return nil, false
	}
	var b FailureBundle
	if err := json.Unmarshal([]byte(msg[i+len(bundleMarker):]), &b); err != nil {
		return nil, false
	}
	return &b, true
}
