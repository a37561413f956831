package tasks

import (
	"fmt"
	"time"
)

// Admission gates job entry into a broker or a sharded fleet. It is the
// hook the multi-tenant gateway hangs per-tenant quotas on: Admit is
// consulted on the guarded submit paths (Broker.TrySubmit,
// Fleet.TrySubmit) before a job is queued, and Release is called
// exactly once when the job's result is recorded, freeing whatever
// capacity Admit reserved.
//
// Implementations must be safe for concurrent use and must make Admit
// idempotent per job ID: the broker deduplicates resubmits of a job
// that is already queued or in flight, so Admit can see the same ID
// twice without a Release in between.
type Admission interface {
	// Admit reserves capacity for the job, or rejects it with a
	// *QuotaExceededError the caller surfaces as backpressure (HTTP 429
	// at the gateway edge). A nil error means the job may be queued.
	Admit(j Job) error
	// Release frees the capacity Admit reserved for the job. Calls for
	// jobs that were never admitted must be no-ops.
	Release(j Job)
}

// QuotaExceededError reports a job rejected by admission control: the
// tenant is at its in-flight cap or its queue bound. The gateway maps
// it to HTTP 429 with a Retry-After header; in-process callers can back
// off RetryAfter and resubmit.
type QuotaExceededError struct {
	Tenant     string        // tenant whose quota rejected the job
	Reason     string        // "max in-flight jobs" or "queue full"
	Limit      int           // the limit that was hit
	RetryAfter time.Duration // suggested backoff before resubmitting
}

func (e *QuotaExceededError) Error() string {
	return fmt.Sprintf("tasks: tenant %q over quota: %s (limit %d)", e.Tenant, e.Reason, e.Limit)
}
