package tasks

import (
	"encoding/json"
	"fmt"
)

// FailureBundle is the structured diagnostic a worker attaches to a job
// failure it recovered from (today: handler panics). It rides inside
// the result envelope's error string — a human-readable head line,
// then a JSON trailer — so the wire protocol and the durable queue
// carry it unchanged, retry classification still works on the head
// line's markers ("panicked" is retryable under DefaultRetryable), and
// a reader recovers the full bundle by decoding the JSON after
// bundleMarker.
type FailureBundle struct {
	Reason  string `json:"reason"` // what was recovered: "panic"
	Error   string `json:"error"`  // the recovered value / root error
	Stack   string `json:"stack,omitempty"`
	JobID   string `json:"job_id,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`
	RunKey  string `json:"run_key,omitempty"` // run name/key from the payload
	// Faults are the injected faults that fired in this worker process
	// before the failure (WorkerOptions.FaultLog) — the chaos-repro
	// breadcrumb tying a panic to the disk or network fault that
	// provoked it.
	Faults []string `json:"fired_faults,omitempty"`
}

// bundleMarker separates the head line from the JSON trailer inside an
// error string.
const bundleMarker = "\n--- failure bundle ---\n"

// Encode renders the bundle as a wire error string: head line first so
// RetryPolicy.RetryableMessage and humans both read the failure class
// without parsing JSON.
func (b *FailureBundle) Encode() string {
	head := b.Error
	if b.Reason == "panic" {
		head = fmt.Sprintf("handler panicked: %s", b.Error)
	}
	raw, err := json.Marshal(b)
	if err != nil {
		return head
	}
	return head + bundleMarker + string(raw)
}

// runKeyFromPayload pulls a run identity out of a job payload for the
// failure bundle: launch payloads carry the run's name/key under one of
// these fields. Best-effort — an unknown payload shape yields "".
func runKeyFromPayload(payload json.RawMessage) string {
	if len(payload) == 0 {
		return ""
	}
	var m map[string]any
	if err := json.Unmarshal(payload, &m); err != nil {
		return ""
	}
	for _, k := range []string{"run_key", "key", "name", "run", "id"} {
		if s, ok := m[k].(string); ok && s != "" {
			return s
		}
	}
	return ""
}
