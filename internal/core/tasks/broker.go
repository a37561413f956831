package tasks

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"gem5art/internal/database"
)

// The broker protocol is newline-delimited JSON over TCP:
//
//	worker -> broker: {"type":"hello","worker":"w1","capacity":N}
//	broker -> worker: {"type":"task","id":"...","kind":"...","attempt":n,"payload":{...}}
//	worker -> broker: {"type":"result","id":"...","worker":"w1","attempt":n,"error":"..."}
//	worker -> broker: {"type":"heartbeat"}
//	worker -> broker: {"type":"resume","id":"...","attempt":n}   (after a reconnect)
//	worker -> broker: {"type":"ready"}                           (resync complete; dispatching may start)
//	broker -> worker: {"type":"ack","id":"..."}                  (result applied or superseded)
//	broker -> worker: {"type":"abandon","id":"..."}              (stop caring about this job)
//	broker -> worker: {"type":"error","error":"protocol: ..."}   (malformed frame; conn closes)
//
// The "worker" and "attempt" fields are the session layer: a worker
// that announces a stable ID in its hello may reconnect after a
// connection loss, resume the jobs it still holds, and resend results
// the broker may never have processed. Results are matched against the
// current assignment by (job, worker, attempt), so a result delivered
// twice across a reconnect — or computed under an assignment that has
// since been revoked and retried elsewhere — is applied exactly once.
// Workers that omit the ID keep the seed semantics: connection-scoped
// identity, requeue on disconnect, no acks.
//
// Four independent mechanisms keep a lost machine from losing
// experiments:
//
//   - disconnect requeue: a worker whose connection drops has its
//     in-flight jobs requeued (the seed behaviour); if the same worker
//     session resumes before the job is redispatched, the assignment is
//     re-adopted instead of re-executed;
//   - heartbeats: a worker that holds its connection open but stops
//     sending messages for longer than BrokerOptions.HeartbeatTimeout is
//     revoked the same way — this catches hung processes a TCP FIN never
//     reports;
//   - leases: each assignment carries a deadline; a job that exceeds
//     BrokerOptions.Lease is revoked from its worker and retried
//     elsewhere under the broker's RetryPolicy. Late results from a
//     revoked assignment are recognised by (job, worker, attempt)
//     identity and dropped, so a wedged attempt that eventually finishes
//     cannot clobber the retry's result;
//   - the durable queue: with BrokerOptions.DB set, pending jobs,
//     attempt counts, in-flight assignments, and applied results are
//     persisted through the storage engine's journal, so a broker that
//     crashes mid-launch reopens with its queue intact and resubmitted
//     jobs that already completed replay their recorded result instead
//     of executing again.

// Envelope is one protocol message.
type Envelope struct {
	Type     string          `json:"type"`
	ID       string          `json:"id,omitempty"`
	Kind     string          `json:"kind,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Output   json.RawMessage `json:"output,omitempty"`
	Error    string          `json:"error,omitempty"`
	Capacity int             `json:"capacity,omitempty"`
	Worker   string          `json:"worker,omitempty"`
	Attempt  int             `json:"attempt,omitempty"`
}

// Job is a distributable task description.
type Job struct {
	ID      string
	Kind    string
	Payload json.RawMessage
}

// JobResult reports one finished job.
type JobResult struct {
	ID     string
	Err    string
	Output json.RawMessage
}

// BrokerOptions configures the broker's fault-tolerance behaviour. The
// zero value reproduces the seed semantics: requeue on disconnect only,
// no leases, no retries, in-memory queue.
type BrokerOptions struct {
	// HeartbeatTimeout revokes a worker whose last message (heartbeat or
	// result) is older than this. 0 disables heartbeat monitoring.
	HeartbeatTimeout time.Duration
	// Lease bounds one assignment's execution; an expired job is revoked
	// from its worker and retried elsewhere. 0 disables leases.
	Lease time.Duration
	// Retry governs re-queueing of failed or lease-expired jobs.
	Retry RetryPolicy
	// CheckInterval is the monitor tick (default: a quarter of the
	// shortest enabled deadline, floor 5ms).
	CheckInterval time.Duration
	// DB persists the queue — pending jobs, attempt counts, in-flight
	// assignments, and results — so a new broker over the same store
	// resumes where a crashed one stopped. Nil keeps the queue in
	// memory only.
	DB database.Store
	// QueueCollection names the durable queue's collection (default
	// "broker_queue").
	QueueCollection string
	// Listener, when non-nil, serves connections from this listener
	// instead of binding addr — the hook chaos tests use to interpose
	// faultinject.NetChaos on the accept path.
	Listener net.Listener
	// Admission, when non-nil, gates TrySubmit: jobs are offered to it
	// before queueing and released back when their result is recorded.
	// Submit bypasses it (trusted in-process callers keep their
	// semantics); the gateway edge always uses TrySubmit.
	Admission Admission
}

// assignment tracks one job handed to one worker session.
type assignment struct {
	job      Job
	worker   *brokerWorker
	workerID string    // stable session ID; "" for anonymous workers
	attempt  int       // execution number this assignment represents
	deadline time.Time // zero = no lease
}

// Broker is the Celery-analogue job queue: it accepts worker
// connections and distributes submitted jobs among them.
type Broker struct {
	ln      net.Listener
	opts    BrokerOptions
	dq      *durableQueue // nil when BrokerOptions.DB is unset
	mu      sync.Mutex
	pending []Job
	inFly   map[string]*assignment // id -> current assignment
	started map[string]int         // id -> executions started (retry budget)
	avoid   map[string]*brokerWorker
	results map[string]JobResult
	resCh   chan JobResult
	sending sync.WaitGroup // deliveries in flight; Close and Kill wait for them before closing resCh
	workers map[*brokerWorker]bool
	byID    map[string]*brokerWorker // stable worker ID -> live session
	done    chan struct{}
	closed  bool
}

type brokerWorker struct {
	conn     net.Conn
	enc      *json.Encoder
	encMu    sync.Mutex
	id       string // stable worker ID from hello; "" = anonymous
	capacity int
	active   map[string]Job
	lastBeat time.Time
	resumes  int
	defunct  bool // superseded by a newer session with the same ID
	syncing  bool // identified session between hello and ready: no dispatch yet
	mu       sync.Mutex
}

// send writes one protocol message to the worker. Writers from several
// goroutines (dispatch, acks, protocol-error replies) are serialized so
// frames never interleave.
func (w *brokerWorker) send(env Envelope) error {
	w.encMu.Lock()
	defer w.encMu.Unlock()
	return w.enc.Encode(env)
}

// NewBroker starts a broker listening on addr ("127.0.0.1:0" for an
// ephemeral port) with seed semantics (no heartbeats, leases, or
// retries).
func NewBroker(addr string) (*Broker, error) {
	return NewBrokerWithOptions(addr, BrokerOptions{})
}

// NewBrokerWithOptions starts a broker with explicit fault-tolerance
// configuration. With a durable queue configured, prior state in the
// store is recovered first: completed jobs keep their results (and
// replay them if resubmitted), unfinished jobs — pending or stranded
// in-flight by a crash — rejoin the queue with their attempt budgets
// intact.
func NewBrokerWithOptions(addr string, opts BrokerOptions) (*Broker, error) {
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("tasks: broker listen: %w", err)
		}
	}
	b := &Broker{
		ln:      ln,
		opts:    opts,
		inFly:   make(map[string]*assignment),
		started: make(map[string]int),
		avoid:   make(map[string]*brokerWorker),
		results: make(map[string]JobResult),
		resCh:   make(chan JobResult, 1024),
		workers: make(map[*brokerWorker]bool),
		byID:    make(map[string]*brokerWorker),
		done:    make(chan struct{}),
	}
	if opts.DB != nil {
		name := opts.QueueCollection
		if name == "" {
			name = "broker_queue"
		}
		col := opts.DB.Collection(name)
		col.CreateIndex("state") // durableQueue.depth counts by state
		b.dq = &durableQueue{col: col}
		pending, execs, results := b.dq.recover()
		b.pending = pending
		for id, n := range execs {
			b.started[id] = n
		}
		for id, res := range results {
			b.results[id] = res
		}
		brokerQueueDepth.Add(float64(len(pending)))
		if len(pending) > 0 || len(results) > 0 {
			brokerRestartsRecovered.Inc()
			brokerJobsRecovered.Add(float64(len(pending)))
		}
	}
	go b.accept()
	if opts.HeartbeatTimeout > 0 || opts.Lease > 0 {
		go b.monitor()
	}
	return b, nil
}

// Addr returns the broker's listen address.
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// Done is closed when the broker stops — gracefully via Close or
// abruptly via Kill. The shard coordinator's lease renewal selects on
// it, and the status daemon's health check reads it through Closed.
func (b *Broker) Done() <-chan struct{} { return b.done }

// Closed reports whether the broker has stopped serving.
func (b *Broker) Closed() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// Submit queues a job for any worker. With a durable queue, Submit is
// idempotent across broker restarts: a job that already completed
// redelivers its recorded result instead of executing again, and a job
// already queued or in flight is not double-queued.
func (b *Broker) Submit(j Job) { b.submit(j) }

// TrySubmit is the admission-controlled submit path: with
// BrokerOptions.Admission set, the job is offered to the controller
// first and a *QuotaExceededError propagates to the caller instead of
// queueing. The reservation is released when the job's result is
// recorded — or immediately, if the broker turns out to be closed.
func (b *Broker) TrySubmit(j Job) error {
	adm := b.opts.Admission
	if adm != nil {
		if err := adm.Admit(j); err != nil {
			return err
		}
	}
	if !b.submit(j) {
		if adm != nil {
			adm.Release(j)
		}
		return fmt.Errorf("tasks: broker closed")
	}
	return nil
}

// submit is the shared enqueue path; it reports false when the broker
// is closed (the only case where the job is dropped outright).
func (b *Broker) submit(j Job) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	if b.dq != nil {
		if res, done := b.results[j.ID]; done {
			b.sending.Add(1)
			b.mu.Unlock()
			// A replayed result is as recorded as a fresh one: any
			// admission reservation made for this resubmit frees now.
			b.release(j)
			// Like every other delivery, off the caller's goroutine: a
			// fleet failover resubmits thousands of finished jobs and
			// must not stall on a Results consumer that is itself waiting
			// for the failover to finish.
			go b.deliver(res)
			return true
		}
		if _, ok := b.inFly[j.ID]; ok {
			b.mu.Unlock()
			return true
		}
		for _, p := range b.pending {
			if p.ID == j.ID {
				b.mu.Unlock()
				return true
			}
		}
		b.dq.savePending(j, b.started[j.ID])
	}
	b.pending = append(b.pending, j)
	b.mu.Unlock()
	brokerQueueDepth.Inc()
	b.dispatch()
	return true
}

// release frees the admission reservation for a job whose result just
// became terminal. Must be called without b.mu held: controllers react
// by dispatching parked work, which re-enters the submit path.
func (b *Broker) release(j Job) {
	if b.opts.Admission != nil {
		b.opts.Admission.Release(j)
	}
}

// Results returns the channel on which finished jobs are delivered.
// Close and Kill close it, after the last delivery in flight has either
// landed or given up, so a consumer ranging over it terminates.
func (b *Broker) Results() <-chan JobResult { return b.resCh }

// Result returns the recorded result for a job, if it has one — either
// delivered normally, failed by Close, or recovered from the durable
// queue after a restart.
func (b *Broker) Result(id string) (JobResult, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	res, ok := b.results[id]
	return res, ok
}

// deliver publishes a result without ever blocking past Close: a
// receiver may have gone away, and result-sending goroutines must not
// leak waiting on a full channel. Results are recorded in b.results
// (and the durable queue) before deliver is called, so nothing is lost
// if the channel consumer is slow or absent — the channel is a
// notification path, the results map is the source of truth. The caller
// has registered the delivery with b.sending.Add(1) under b.mu, having
// seen the broker open there: that is what orders every send before
// the close of resCh.
func (b *Broker) deliver(res JobResult) {
	defer b.sending.Done()
	if res.Err == "" {
		brokerJobs.With("ok").Inc()
	} else {
		brokerJobs.With("error").Inc()
	}
	select {
	case b.resCh <- res:
	case <-b.done:
	}
}

// Close shuts the broker down. Without a durable queue, jobs still
// pending or assigned are recorded as failed ("broker closed") so
// callers polling Result see a terminal state. With a durable queue,
// unfinished jobs are instead parked as pending in the store — a later
// NewBrokerWithOptions over the same database resumes them. Any
// goroutine blocked delivering a result is released rather than leaked,
// and Results is closed once they are gone; results still buffered stay
// receivable.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.done)
	ws := make([]*brokerWorker, 0, len(b.workers))
	for w := range b.workers {
		ws = append(ws, w)
	}
	var failed []Job
	if b.dq == nil {
		for id, a := range b.inFly {
			b.results[id] = JobResult{ID: id, Err: "broker closed"}
			failed = append(failed, a.job)
		}
		for _, j := range b.pending {
			if _, ok := b.results[j.ID]; !ok {
				b.results[j.ID] = JobResult{ID: j.ID, Err: "broker closed"}
				failed = append(failed, j)
			}
		}
	} else {
		for id, a := range b.inFly {
			b.dq.savePending(a.job, b.started[id])
		}
	}
	b.inFly = make(map[string]*assignment)
	brokerQueueDepth.Add(-float64(len(b.pending)))
	b.pending = nil
	b.mu.Unlock()
	for _, j := range failed {
		b.release(j)
	}
	_ = b.ln.Close()
	for _, w := range ws {
		_ = w.conn.Close()
	}
	b.closeResults()
}

// closeResults closes the result channel once no delivery can still
// send on it. Close and Kill call it after setting b.closed and closing
// b.done: no new delivery registers past the first, and every
// registered one falls out through the second.
func (b *Broker) closeResults() {
	b.sending.Wait()
	close(b.resCh)
}

// Kill stops the broker abruptly: listener and connections die, but no
// failure results are recorded and the durable queue is left exactly as
// the crash found it. It simulates the broker process dying mid-launch
// — the scenario NewBrokerWithOptions recovery exists for.
func (b *Broker) Kill() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.done)
	ws := make([]*brokerWorker, 0, len(b.workers))
	for w := range b.workers {
		ws = append(ws, w)
	}
	brokerQueueDepth.Add(-float64(len(b.pending)))
	b.mu.Unlock()
	_ = b.ln.Close()
	for _, w := range ws {
		_ = w.conn.Close()
	}
	b.closeResults()
}

func (b *Broker) accept() {
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return // closed
		}
		go b.serve(conn)
	}
}

// monitor enforces heartbeat and lease deadlines.
func (b *Broker) monitor() {
	tick := b.opts.CheckInterval
	if tick <= 0 {
		tick = minPositive(b.opts.HeartbeatTimeout, b.opts.Lease) / 4
		if tick < 5*time.Millisecond {
			tick = 5 * time.Millisecond
		}
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-b.done:
			return
		case <-t.C:
		}
		b.checkHeartbeats()
		b.checkLeases()
	}
}

func minPositive(a, b time.Duration) time.Duration {
	switch {
	case a <= 0:
		return b
	case b <= 0, a < b:
		return a
	}
	return b
}

// checkHeartbeats revokes workers that have gone silent. Closing the
// connection routes through the same requeue path as a TCP disconnect,
// so no job on a hung worker is lost — and a session worker that was
// merely partitioned can reconnect and resume.
func (b *Broker) checkHeartbeats() {
	if b.opts.HeartbeatTimeout <= 0 {
		return
	}
	now := time.Now()
	b.mu.Lock()
	var dead []*brokerWorker
	for w := range b.workers {
		w.mu.Lock()
		silent := now.Sub(w.lastBeat) > b.opts.HeartbeatTimeout
		w.mu.Unlock()
		if silent {
			dead = append(dead, w)
		}
	}
	b.mu.Unlock()
	for _, w := range dead {
		brokerWorkerRevocations.Inc()
		_ = w.conn.Close()
	}
}

// checkLeases kills assignments that have outlived their lease and
// retries them elsewhere.
func (b *Broker) checkLeases() {
	if b.opts.Lease <= 0 {
		return
	}
	now := time.Now()
	b.mu.Lock()
	var expired []*assignment
	for _, a := range b.inFly {
		if !a.deadline.IsZero() && now.After(a.deadline) {
			expired = append(expired, a)
		}
	}
	b.mu.Unlock()
	for _, a := range expired {
		b.failAssignment(a, "lease expired")
	}
}

// failAssignment revokes a job from its worker and either requeues it
// under the retry policy (with backoff, preferring a different worker)
// or delivers the failure.
func (b *Broker) failAssignment(a *assignment, reason string) {
	b.mu.Lock()
	cur, ok := b.inFly[a.job.ID]
	if !ok || cur != a {
		b.mu.Unlock()
		return // already finished or reassigned
	}
	delete(b.inFly, a.job.ID)
	a.worker.mu.Lock()
	delete(a.worker.active, a.job.ID)
	a.worker.mu.Unlock()
	if reason == "lease expired" {
		brokerLeaseRevocations.Inc()
	}
	b.avoid[a.job.ID] = a.worker
	n := b.started[a.job.ID]
	rp := b.opts.Retry
	if rp.Enabled() && n < rp.MaxAttempts && rp.RetryableMessage(reason) {
		b.dq.savePending(a.job, n) // durable before the backoff gap
		b.mu.Unlock()
		b.requeueAfter(a.job, rp.Backoff(n))
		b.dispatch()
		return
	}
	res := JobResult{ID: a.job.ID, Err: fmt.Sprintf("%s after %d attempts", reason, n)}
	b.results[a.job.ID] = res
	b.dq.saveDone(res, n)
	delete(b.avoid, a.job.ID)
	open := b.registerDeliveryLocked()
	b.mu.Unlock()
	b.release(a.job)
	if open {
		go b.deliver(res)
	}
	b.dispatch()
}

// requeueAfter puts a job back on the pending queue once its backoff
// elapses. It is only reached from the retry paths, so it also counts
// the retry. The durable queue already marks the job pending before the
// backoff starts, so a crash during the gap cannot lose it.
func (b *Broker) requeueAfter(j Job, d time.Duration) {
	brokerRetries.Inc()
	time.AfterFunc(d, func() {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		if _, ok := b.inFly[j.ID]; ok {
			// A session resume re-adopted the assignment during the
			// backoff; the retry is moot.
			b.mu.Unlock()
			return
		}
		if _, done := b.results[j.ID]; done {
			// A resent result landed during the backoff; done is done.
			b.mu.Unlock()
			return
		}
		b.pending = append(b.pending, j)
		b.mu.Unlock()
		brokerQueueDepth.Inc()
		b.dispatch()
	})
}

func (b *Broker) serve(conn net.Conn) {
	w := &brokerWorker{
		conn:   conn,
		enc:    json.NewEncoder(conn),
		active: make(map[string]Job),
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		_ = conn.Close()
		return
	}
	var hello Envelope
	if err := json.Unmarshal(sc.Bytes(), &hello); err != nil || hello.Type != "hello" {
		brokerProtocolErrors.Inc()
		_ = w.send(Envelope{Type: "error", Error: "protocol: expected hello frame"})
		_ = conn.Close()
		return
	}
	w.id = hello.Worker
	w.capacity = hello.Capacity
	if w.capacity < 1 {
		w.capacity = 1
	}
	// Identified sessions resynchronize before taking new work: resume
	// and result-resend frames must be processed ahead of any dispatch,
	// or the broker would redispatch a job its own worker still holds.
	// The worker lifts the gate with a "ready" frame.
	w.syncing = w.id != ""
	w.lastBeat = time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = conn.Close()
		return
	}
	var stale net.Conn
	if w.id != "" {
		if old := b.byID[w.id]; old != nil && old != w {
			stale = b.detachSessionLocked(old)
		}
		b.byID[w.id] = w
	}
	b.workers[w] = true
	b.mu.Unlock()
	if stale != nil {
		_ = stale.Close()
	}
	b.dispatch()

	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			// A torn or corrupt frame poisons the stream: reply with a
			// protocol error, then drop the connection so its jobs route
			// through the clean revoke/requeue path below. Never a
			// broker-side panic, never a silently wedged read loop.
			brokerProtocolErrors.Inc()
			_ = w.send(Envelope{Type: "error", Error: fmt.Sprintf("protocol: malformed frame: %v", err)})
			break
		}
		w.mu.Lock()
		w.lastBeat = time.Now()
		w.mu.Unlock()
		switch env.Type {
		case "heartbeat":
			brokerHeartbeats.Inc()
		case "ready":
			w.mu.Lock()
			w.syncing = false
			w.mu.Unlock()
			b.dispatch()
		case "resume":
			b.handleResume(w, env)
		case "result":
			w.mu.Lock()
			delete(w.active, env.ID)
			w.mu.Unlock()
			b.finish(w, env)
			b.dispatch()
		default:
			// Unknown type: liveness already recorded.
		}
	}
	_ = conn.Close()
	// Worker lost: requeue its in-flight jobs (unless a newer session
	// with the same ID already adopted them).
	w.mu.Lock()
	defunct := w.defunct
	orphans := make([]Job, 0, len(w.active))
	for _, j := range w.active {
		orphans = append(orphans, j)
	}
	w.active = make(map[string]Job)
	w.mu.Unlock()
	b.mu.Lock()
	delete(b.workers, w)
	if w.id != "" && b.byID[w.id] == w {
		delete(b.byID, w.id)
	}
	requeued := 0
	if !defunct {
		for _, j := range orphans {
			// Only requeue jobs this session still owns; a lease expiry
			// may already have moved one elsewhere.
			if a, ok := b.inFly[j.ID]; ok && a.worker == w {
				delete(b.inFly, j.ID)
				b.dq.savePending(j, b.started[j.ID])
				b.pending = append(b.pending, j)
				requeued++
			}
		}
	}
	b.mu.Unlock()
	brokerQueueDepth.Add(float64(requeued))
	if requeued > 0 {
		b.dispatch()
	}
}

// detachSessionLocked supersedes an old session whose worker ID just
// reconnected: its assignments go back to pending (where the new
// session's resume frames can re-adopt them), and the old serve loop is
// marked defunct so its eventual exit does not requeue them a second
// time. Returns the stale connection for the caller to close outside
// b.mu.
func (b *Broker) detachSessionLocked(old *brokerWorker) net.Conn {
	old.mu.Lock()
	old.defunct = true
	orphans := make([]Job, 0, len(old.active))
	for _, j := range old.active {
		orphans = append(orphans, j)
	}
	old.active = make(map[string]Job)
	old.mu.Unlock()
	requeued := 0
	for _, j := range orphans {
		if a, ok := b.inFly[j.ID]; ok && a.worker == old {
			delete(b.inFly, j.ID)
			b.dq.savePending(j, b.started[j.ID])
			b.pending = append(b.pending, j)
			requeued++
		}
	}
	brokerQueueDepth.Add(float64(requeued))
	return old.conn
}

// handleResume processes one {"type":"resume"} frame: a reconnected
// session still holds this job (executing or finished-but-unacked) and
// asks to keep it. The broker re-adopts the assignment if the job is
// still this worker's to finish — same attempt, not completed, not
// reassigned — and otherwise tells the worker to abandon it.
func (b *Broker) handleResume(w *brokerWorker, env Envelope) {
	id := env.ID
	b.mu.Lock()
	if _, done := b.results[id]; done || w.id == "" {
		b.mu.Unlock()
		_ = w.send(Envelope{Type: "abandon", ID: id})
		return
	}
	if a, ok := b.inFly[id]; ok {
		if a.workerID == w.id && (env.Attempt == 0 || env.Attempt == a.attempt) {
			// Still assigned to this worker ID (the disconnect was never
			// observed): re-point the assignment at the new session.
			a.worker = w
			if b.opts.Lease > 0 {
				a.deadline = time.Now().Add(b.opts.Lease)
			}
			w.mu.Lock()
			w.active[id] = a.job
			w.resumes++
			w.mu.Unlock()
			b.mu.Unlock()
			brokerSessionResumes.Inc()
			return
		}
		b.mu.Unlock()
		_ = w.send(Envelope{Type: "abandon", ID: id})
		return
	}
	for i, p := range b.pending {
		if p.ID != id {
			continue
		}
		if env.Attempt != 0 && env.Attempt != b.started[id] {
			break // an outdated attempt; let the queue redispatch
		}
		b.pending = append(b.pending[:i], b.pending[i+1:]...)
		brokerQueueDepth.Dec()
		a := &assignment{job: p, worker: w, workerID: w.id, attempt: b.started[id]}
		if b.opts.Lease > 0 {
			a.deadline = time.Now().Add(b.opts.Lease)
		}
		b.inFly[id] = a
		b.dq.saveInflight(p, w.id, b.started[id])
		w.mu.Lock()
		w.active[id] = p
		w.resumes++
		w.mu.Unlock()
		b.mu.Unlock()
		brokerSessionResumes.Inc()
		return
	}
	b.mu.Unlock()
	_ = w.send(Envelope{Type: "abandon", ID: id})
}

// finish records one worker-reported result, applying the retry policy
// to failures and dropping results from revoked assignments. Identified
// workers are acked either way, so a worker retaining a result for
// resend across reconnects knows it can stop.
func (b *Broker) finish(w *brokerWorker, env Envelope) {
	b.mu.Lock()
	var job Job
	match := false
	if a, ok := b.inFly[env.ID]; ok {
		if env.Worker != "" {
			match = a.workerID == env.Worker && (env.Attempt == 0 || env.Attempt == a.attempt)
		} else {
			match = a.worker == w
		}
		if match {
			delete(b.inFly, env.ID)
			job = a.job
		}
	} else if env.Worker != "" {
		// Not assigned — but a session worker may legitimately deliver a
		// result for a job our disconnect handling already requeued: the
		// execution finished while the connection was down and the
		// result was resent after the reconnect. If the queued entry is
		// still this execution (same attempt), apply it instead of
		// making another worker redo the work.
		if _, done := b.results[env.ID]; !done {
			for i, p := range b.pending {
				if p.ID == env.ID && (env.Attempt == 0 || env.Attempt == b.started[env.ID]) {
					b.pending = append(b.pending[:i], b.pending[i+1:]...)
					brokerQueueDepth.Dec()
					match = true
					job = p
					break
				}
			}
		}
	}
	if !match {
		// Stale or duplicate: the assignment was revoked and retried
		// elsewhere, or the result was already applied (e.g. delivered
		// right before a connection drop and resent after the reconnect).
		if _, done := b.results[env.ID]; done {
			brokerDuplicateResults.Inc()
		}
		b.mu.Unlock()
		if env.Worker != "" {
			_ = w.send(Envelope{Type: "ack", ID: env.ID})
		}
		return
	}
	if env.Error != "" {
		n := b.started[env.ID]
		rp := b.opts.Retry
		if rp.Enabled() && n < rp.MaxAttempts && rp.RetryableMessage(env.Error) {
			b.avoid[env.ID] = w
			b.dq.savePending(job, n)
			b.mu.Unlock()
			if env.Worker != "" {
				_ = w.send(Envelope{Type: "ack", ID: env.ID})
			}
			b.requeueAfter(job, rp.Backoff(n))
			return
		}
	}
	delete(b.avoid, env.ID)
	res := JobResult{ID: env.ID, Err: env.Error, Output: env.Output}
	b.results[env.ID] = res
	b.dq.saveDone(res, b.started[env.ID])
	open := b.registerDeliveryLocked()
	b.mu.Unlock()
	b.release(job)
	if env.Worker != "" {
		_ = w.send(Envelope{Type: "ack", ID: env.ID})
	}
	// Deliver on a separate goroutine so a slow Results consumer can
	// never stall this worker's read loop (and with it heartbeat
	// processing); the result is already durable above.
	if open {
		go b.deliver(res)
	}
}

// registerDeliveryLocked accounts for one coming deliver call and
// reports whether to make it: a result recorded after Close or Kill
// stays in b.results (and the durable queue) and is not sent. Caller
// holds b.mu.
func (b *Broker) registerDeliveryLocked() bool {
	if b.closed {
		return false
	}
	b.sending.Add(1)
	return true
}

// dispatch hands pending jobs to workers with free capacity, preferring
// a worker other than the one a job last failed on.
func (b *Broker) dispatch() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.pending) > 0 {
		j := b.pending[0]
		var target, fallback *brokerWorker
		for w := range b.workers {
			w.mu.Lock()
			free := !w.defunct && !w.syncing && len(w.active) < w.capacity
			w.mu.Unlock()
			if !free {
				continue
			}
			if b.avoid[j.ID] == w {
				fallback = w
				continue
			}
			target = w
			break
		}
		if target == nil {
			target = fallback
		}
		if target == nil {
			return
		}
		b.pending = b.pending[1:]
		brokerQueueDepth.Dec()
		target.mu.Lock()
		target.active[j.ID] = j
		target.mu.Unlock()
		b.started[j.ID]++
		attempt := b.started[j.ID]
		a := &assignment{job: j, worker: target, workerID: target.id, attempt: attempt}
		if b.opts.Lease > 0 {
			a.deadline = time.Now().Add(b.opts.Lease)
		}
		b.inFly[j.ID] = a
		b.dq.saveInflight(j, target.id, attempt)
		if err := target.send(Envelope{Type: "task", ID: j.ID, Kind: j.Kind, Payload: j.Payload, Attempt: attempt}); err != nil {
			// The serve loop will notice the dead connection and requeue.
			target.mu.Lock()
			delete(target.active, j.ID)
			target.mu.Unlock()
			delete(b.inFly, j.ID)
			b.started[j.ID]-- // the attempt never reached the worker
			b.dq.savePending(j, b.started[j.ID])
			b.pending = append(b.pending, j)
			brokerQueueDepth.Inc()
			return
		}
	}
}

// PendingCount reports queued (not yet assigned) jobs, for tests.
func (b *Broker) PendingCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// AssignmentState describes one in-flight assignment for the status
// daemon's broker API.
type AssignmentState struct {
	JobID         string    `json:"job_id"`
	Kind          string    `json:"kind"`
	Worker        string    `json:"worker"`
	LeaseDeadline time.Time `json:"lease_deadline,omitempty"`
	Executions    int       `json:"executions"`
}

// WorkerSessionState describes one connected worker session for the
// status daemon's broker API.
type WorkerSessionState struct {
	ID       string    `json:"id,omitempty"` // stable worker ID; empty for anonymous sessions
	Addr     string    `json:"addr"`
	Capacity int       `json:"capacity"`
	Active   int       `json:"active"`
	Resumes  int       `json:"resumes"`
	LastBeat time.Time `json:"last_beat"`
}

// BrokerState is a point-in-time snapshot of the broker's queue, its
// connected worker sessions, every in-flight assignment with its lease
// deadline, and the durable queue's depth — the live state /api/broker
// serves.
type BrokerState struct {
	Pending  int                  `json:"pending"`
	Workers  int                  `json:"workers"`
	InFlight []AssignmentState    `json:"in_flight"`
	Results  int                  `json:"results"`
	Sessions []WorkerSessionState `json:"sessions,omitempty"`
	// Durable queue status: zero values when the queue is in-memory.
	Durable        bool `json:"durable"`
	DurablePending int  `json:"durable_pending,omitempty"`
	DurableDone    int  `json:"durable_done,omitempty"`
}

// State captures the broker's current queue, session, and lease state.
func (b *Broker) State() BrokerState {
	b.mu.Lock()
	st := BrokerState{
		Pending: len(b.pending),
		Workers: len(b.workers),
		Results: len(b.results),
		Durable: b.dq != nil,
	}
	for _, a := range b.inFly {
		worker := a.workerID
		if worker == "" {
			worker = a.worker.conn.RemoteAddr().String()
		}
		st.InFlight = append(st.InFlight, AssignmentState{
			JobID:         a.job.ID,
			Kind:          a.job.Kind,
			Worker:        worker,
			LeaseDeadline: a.deadline,
			Executions:    b.started[a.job.ID],
		})
	}
	for w := range b.workers {
		w.mu.Lock()
		st.Sessions = append(st.Sessions, WorkerSessionState{
			ID:       w.id,
			Addr:     w.conn.RemoteAddr().String(),
			Capacity: w.capacity,
			Active:   len(w.active),
			Resumes:  w.resumes,
			LastBeat: w.lastBeat,
		})
		w.mu.Unlock()
	}
	dq := b.dq
	b.mu.Unlock()
	if dq != nil {
		st.DurablePending, st.DurableDone = dq.depth()
	}
	sort.Slice(st.InFlight, func(i, j int) bool { return st.InFlight[i].JobID < st.InFlight[j].JobID })
	sort.Slice(st.Sessions, func(i, j int) bool {
		if st.Sessions[i].ID != st.Sessions[j].ID {
			return st.Sessions[i].ID < st.Sessions[j].ID
		}
		return st.Sessions[i].Addr < st.Sessions[j].Addr
	})
	return st
}

// Executions reports how many assignments a job has consumed so far,
// for tests and reporting.
func (b *Broker) Executions(id string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started[id]
}
