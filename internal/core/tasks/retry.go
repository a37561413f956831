package tasks

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"time"
)

// RetryPolicy governs how failed work is re-executed. It is applied
// uniformly by both executors: the Pool re-runs a task whose error is
// classified retryable, and the Broker re-queues a job whose result
// carries a retryable error (or whose lease expired) onto another
// worker. gem5art's promise — "rerun failed Celery tasks" — is this
// policy.
//
// The zero value disables retries (MaxAttempts <= 1), preserving
// fail-fast semantics for callers that do not opt in.
type RetryPolicy struct {
	MaxAttempts int           // total attempts including the first; <= 1 disables retries
	BaseDelay   time.Duration // backoff before the first retry (default 10ms)
	MaxDelay    time.Duration // backoff cap (default 5s)
	Multiplier  float64       // exponential growth factor (default 2)
	Jitter      float64       // fraction of the delay added as jitter, 0..1
	Seed        int64         // jitter seed; the same seed yields the same schedule
}

// DefaultRetryPolicy is a sensible starting point: three attempts with
// 10ms..2s exponential backoff and 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// Enabled reports whether the policy allows any retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Backoff returns the delay before retry number retry (1 = the first
// retry, after the first failure). The schedule is exponential with a
// cap, plus deterministic seed-derived jitter so concurrent retries of
// different jobs spread out without making tests flaky.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	if retry < 1 {
		retry = 1
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = 5 * time.Second
	}
	d := float64(base)
	for i := 1; i < retry && d < float64(cap); i++ {
		d *= mult
	}
	if d > float64(cap) {
		d = float64(cap)
	}
	if p.Jitter > 0 {
		rng := rand.New(rand.NewSource(p.Seed ^ int64(retry)*0x5851f42d4c957f2d))
		d += d * p.Jitter * rng.Float64()
	}
	if out := time.Duration(d); out < cap {
		return out
	}
	return cap
}

// Retryable classifies an error under this policy: DefaultRetryable.
func (p RetryPolicy) Retryable(err error) bool {
	return DefaultRetryable(err)
}

// RetryableMessage classifies an error string carried over the broker
// protocol, where only the rendered message survives the wire.
func (p RetryPolicy) RetryableMessage(msg string) bool {
	if msg == "" {
		return false
	}
	return p.Retryable(errors.New(msg))
}

// transienter is implemented by errors that mark themselves safe to
// retry (e.g. faultinject.TransientError).
type transienter interface{ Transient() bool }

// DefaultRetryable reports whether an error looks transient: it either
// declares itself so via a Transient() method, is a deadline expiry, or
// renders with one of the failure markers a lost machine or crashed
// gem5 process produces. Everything else (bad configs, missing
// artifacts) is permanent and fails fast.
func DefaultRetryable(err error) bool {
	if err == nil {
		return false
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	msg := err.Error()
	for _, marker := range []string{
		"transient", "panicked", "lease expired", "worker lost",
		"connection reset", "broken pipe", "EOF",
	} {
		if strings.Contains(msg, marker) {
			return true
		}
	}
	return false
}
