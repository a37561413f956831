// Package tasks implements gem5art's task layer (§IV-D): run objects are
// turned into jobs and handed to an executor. Two executors are
// provided, mirroring the paper's options:
//
//   - Pool, an in-process worker pool (the Python multiprocessing
//     analogue) that schedules as many concurrent gem5 jobs as the host
//     allows, and
//   - Broker/Worker, a TCP job queue (the Celery analogue) that can
//     distribute jobs over multiple machines.
//
// "There is no limit to how many tasks may be passed": submission never
// blocks the caller; tasks queue and run as capacity frees up.
package tasks

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gem5art/internal/faultinject"
)

// Task is one unit of work — typically a *run.Run wrapped by RunTask.
type Task interface {
	ID() string
	Execute(ctx context.Context) error
}

// TaskFunc adapts a function to the Task interface.
type TaskFunc struct {
	Name string
	Fn   func(ctx context.Context) error
}

// ID implements Task.
func (t TaskFunc) ID() string { return t.Name }

// Execute implements Task.
func (t TaskFunc) Execute(ctx context.Context) error { return t.Fn(ctx) }

// Future is the handle returned by ApplyAsync.
type Future struct {
	id       string
	done     chan struct{}
	err      error
	attempts int
}

// ID returns the task's identifier.
func (f *Future) ID() string { return f.id }

// Attempts reports how many times the task was executed, valid once the
// future is done. 1 means it succeeded (or failed permanently) on the
// first try; larger values mean the retry policy kicked in.
func (f *Future) Attempts() int { return f.attempts }

// Wait blocks until the task finishes (or ctx is cancelled) and returns
// the task's error.
func (f *Future) Wait(ctx context.Context) error {
	select {
	case <-f.done:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done reports whether the task has completed without blocking.
func (f *Future) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Pool executes tasks on a fixed number of worker goroutines.
type Pool struct {
	mu      sync.Mutex
	queue   []*queued
	notify  chan struct{}
	futures []*Future
	closed  bool
	wg      sync.WaitGroup
	cancel  context.CancelFunc
	retry   RetryPolicy
	inject  *faultinject.Injector
}

type queued struct {
	task Task
	fut  *Future
}

// NewPool starts a pool with the given number of workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		notify: make(chan struct{}, 1),
		cancel: cancel,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker(ctx)
	}
	return p
}

// ApplyAsync enqueues a task and returns its future. It never blocks.
func (p *Pool) ApplyAsync(t Task) (*Future, error) {
	fut := &Future{id: t.ID(), done: make(chan struct{})}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("tasks: pool is closed")
	}
	p.queue = append(p.queue, &queued{task: t, fut: fut})
	p.futures = append(p.futures, fut)
	p.mu.Unlock()
	poolQueueDepth.Inc()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return fut, nil
}

// SetRetryPolicy makes the pool re-execute tasks whose errors the
// policy classifies as retryable, with backoff between attempts. It
// applies to tasks executed after the call.
func (p *Pool) SetRetryPolicy(rp RetryPolicy) {
	p.mu.Lock()
	p.retry = rp
	p.mu.Unlock()
}

// SetInjector arms a fault injector consulted before each task
// execution (site "pool.execute") — the test hook for crash, hang, and
// transient-error recovery.
func (p *Pool) SetInjector(in *faultinject.Injector) {
	p.mu.Lock()
	p.inject = in
	p.mu.Unlock()
}

func (p *Pool) next() *queued {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil
	}
	q := p.queue[0]
	p.queue = p.queue[1:]
	poolQueueDepth.Dec()
	return q
}

func (p *Pool) worker(ctx context.Context) {
	defer p.wg.Done()
	for {
		q := p.next()
		if q == nil {
			select {
			case <-ctx.Done():
				return
			case <-p.notify:
				continue
			}
		}
		p.execute(ctx, q)
		// Re-arm the notify channel in case more tasks queued while we
		// were busy.
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// execute runs one task to completion under the pool's retry policy.
func (p *Pool) execute(ctx context.Context, q *queued) {
	p.mu.Lock()
	rp := p.retry
	inject := p.inject
	p.mu.Unlock()
	start := time.Now()
	attempts := 0
	var err error
	for {
		attempts++
		err = p.runOnce(ctx, q.task, inject)
		if err == nil || !rp.Enabled() || attempts >= rp.MaxAttempts ||
			!rp.Retryable(err) || ctx.Err() != nil {
			break
		}
		poolRetries.Inc()
		select {
		case <-time.After(rp.Backoff(attempts)):
		case <-ctx.Done():
		}
	}
	poolJobDuration.Observe(time.Since(start).Seconds())
	q.fut.err = err
	q.fut.attempts = attempts
	close(q.fut.done)
}

// runOnce performs a single attempt, converting panics (a crashed
// simulation) into errors the retry policy can classify.
func (p *Pool) runOnce(ctx context.Context, t Task, inject *faultinject.Injector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("tasks: %s panicked: %v", t.ID(), r)
		}
	}()
	if ferr := inject.Hit("pool.execute"); ferr != nil {
		return ferr
	}
	return t.Execute(ctx)
}

// WaitAll blocks until every task submitted so far has finished,
// returning the first error encountered (others are still run).
func (p *Pool) WaitAll(ctx context.Context) error {
	p.mu.Lock()
	futs := append([]*Future(nil), p.futures...)
	p.mu.Unlock()
	var first error
	for _, f := range futs {
		if err := f.Wait(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops accepting tasks, cancels the workers' context once the
// queue drains, and waits for them to exit.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	_ = p.WaitAll(context.Background())
	p.cancel()
	p.wg.Wait()
}
