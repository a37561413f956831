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
//	worker -> broker: {"type":"resume","id":"...","attempt":n}   (after a reconnect)
//	worker -> broker: {"type":"ready"}                           (resync complete; dispatching may start)
//	broker -> worker: {"type":"task","id":"...","kind":"...","attempt":n,"payload":{...}}
//	worker -> broker: {"type":"result","id":"...","attempt":n,"error":"..."}
//	worker -> broker: {"type":"heartbeat"}
//	broker -> worker: {"type":"ack","id":"..."}                  (result applied or superseded)
//	broker -> worker: {"type":"abandon","id":"..."}              (stop caring about this job)
//	broker -> worker: {"type":"error","error":"protocol: ..."}   (malformed frame; conn closes)
//
// Every worker announces a stable ID in its hello, and that ID — not
// the TCP connection — owns a *session*: the worker may reconnect after
// a connection loss, resume the jobs it still holds, and resend results
// the broker may never have processed. Results are matched against the
// current assignment by (job, worker, attempt), the worker being the ID
// its session's hello announced, so a result delivered twice across a
// reconnect — or computed under an assignment that has since been
// revoked and retried elsewhere — is applied exactly once, and every
// result is acked so the worker can stop retaining it. A hello without
// an ID is a protocol error.
//
// Four independent mechanisms keep a lost machine from losing
// experiments:
//
//   - disconnect requeue: a session whose connection drops has its
//     in-flight jobs requeued; if the same worker resumes before a job
//     is redispatched, the assignment is re-adopted instead of
//     re-executed;
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
//     attempt counts, and applied results are persisted through the
//     storage engine's journal, so a broker that crashes mid-launch
//     reopens with its queue intact. A dispatch is not persisted: the
//     one attempt a crash can hide is adopted when its worker resumes
//     it, and otherwise forgiven.
//
// Submit is idempotent per job ID: a job already queued or in flight is
// not queued again, and a finished one replays its recorded result —
// across restarts too when the queue is durable.
//
// A job moves pending → leased → done, with leased → pending on a lost
// session and leased → (backoff) → pending on a retry. Each transition
// has exactly one function: leaseLocked, requeueLocked, settleLocked.

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
// zero value requeues on disconnect only: no leases, no retries,
// in-memory queue.
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
	// DB persists the queue — pending jobs, attempt counts, and results
	// — in its QueueCollection, so a new broker over the same store
	// resumes where a crashed one stopped. Nil keeps the queue in
	// memory only.
	DB database.Store
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

// assignment tracks one job leased to one worker session.
type assignment struct {
	job      Job
	worker   *brokerWorker // the session holding the lease
	attempt  int           // execution number this assignment represents
	deadline time.Time     // zero = no lease
}

// Broker is the Celery-analogue job queue: it accepts worker
// connections and distributes submitted jobs among them.
type Broker struct {
	ln       net.Listener
	opts     BrokerOptions
	dq       *durableQueue // nil when BrokerOptions.DB is unset
	mu       sync.Mutex
	pending  []Job
	inFly    map[string]*assignment // id -> current assignment
	started  map[string]int         // id -> executions started (retry budget)
	avoid    map[string]*brokerWorker
	results  map[string]JobResult
	resCh    chan JobResult
	sending  sync.WaitGroup           // deliveries in flight; stop waits for them before closing resCh
	sessions map[string]*brokerWorker // worker ID -> live session
	done     chan struct{}
	closed   bool
}

type brokerWorker struct {
	conn     net.Conn
	enc      *json.Encoder
	encMu    sync.Mutex
	id       string // stable worker ID from hello
	capacity int
	active   map[string]Job
	lastBeat time.Time
	resumes  int
	syncing  bool // between hello and ready: no dispatch yet
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
// ephemeral port) with no heartbeats, leases, or retries.
func NewBroker(addr string) (*Broker, error) {
	return NewBrokerWithOptions(addr, BrokerOptions{})
}

// NewBrokerWithOptions starts a broker with explicit fault-tolerance
// configuration. With a durable queue configured, prior state in the
// store is recovered first: completed jobs keep their results (and
// replay them if resubmitted), unfinished jobs — pending or stranded
// in flight by a crash — rejoin the queue with their attempt budgets
// intact, less the one dispatch the crash may have hidden.
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
		ln:       ln,
		opts:     opts,
		inFly:    make(map[string]*assignment),
		started:  make(map[string]int),
		avoid:    make(map[string]*brokerWorker),
		results:  make(map[string]JobResult),
		resCh:    make(chan JobResult, 1024),
		sessions: make(map[string]*brokerWorker),
		done:     make(chan struct{}),
	}
	if opts.DB != nil {
		col := opts.DB.Collection(QueueCollection)
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

// Submit queues a job for any worker. It is idempotent per job ID: a
// job that already completed redelivers its recorded result instead of
// executing again, and a job already queued or in flight is not queued
// twice. With a durable queue this holds across broker restarts.
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
	if _, ok := b.inFly[j.ID]; ok || b.pendingIndexLocked(j.ID) >= 0 {
		b.mu.Unlock()
		return true
	}
	b.dq.savePending(j, b.started[j.ID])
	b.enqueueLocked(j)
	b.mu.Unlock()
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
func (b *Broker) Close() { b.stop(true) }

// Kill stops the broker abruptly: listener and connections die, but no
// failure results are recorded and the durable queue is left exactly as
// the crash found it. It simulates the broker process dying mid-launch
// — the scenario NewBrokerWithOptions recovery exists for.
func (b *Broker) Kill() { b.stop(false) }

// stop is Close (graceful) and Kill. Either way the in-memory queue is
// emptied under b.mu, so a session that drops afterwards finds no lease
// to requeue and nothing reaches the durable queue after the stop.
// Results is closed once no delivery can still send on it: no new one
// registers past b.closed, and every registered one falls out through
// b.done.
func (b *Broker) stop(graceful bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.done)
	var failed []Job
	if graceful {
		// Unfinished jobs are parked for the next broker when the queue
		// is durable (pending ones already are), and failed otherwise.
		for id, a := range b.inFly {
			if b.dq != nil {
				b.dq.savePending(a.job, b.started[id])
			} else {
				failed = append(failed, a.job)
			}
		}
		if b.dq == nil {
			failed = append(failed, b.pending...)
		}
		for _, j := range failed {
			b.results[j.ID] = JobResult{ID: j.ID, Err: "broker closed"}
		}
	}
	b.inFly = make(map[string]*assignment)
	brokerQueueDepth.Add(-float64(len(b.pending)))
	b.pending = nil
	conns := make([]net.Conn, 0, len(b.sessions))
	for _, w := range b.sessions {
		conns = append(conns, w.conn)
	}
	b.mu.Unlock()
	for _, j := range failed {
		b.release(j)
	}
	_ = b.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	b.sending.Wait()
	close(b.resCh)
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
// so no job on a hung worker is lost — and a worker that was merely
// partitioned can reconnect and resume.
func (b *Broker) checkHeartbeats() {
	if b.opts.HeartbeatTimeout <= 0 {
		return
	}
	now := time.Now()
	b.mu.Lock()
	var dead []net.Conn
	for _, w := range b.sessions {
		w.mu.Lock()
		if now.Sub(w.lastBeat) > b.opts.HeartbeatTimeout {
			dead = append(dead, w.conn)
		}
		w.mu.Unlock()
	}
	b.mu.Unlock()
	for _, c := range dead {
		brokerWorkerRevocations.Inc()
		_ = c.Close()
	}
}

// checkLeases revokes assignments that have outlived their lease and
// settles each as a failed execution, which retries it elsewhere while
// the budget lasts.
func (b *Broker) checkLeases() {
	if b.opts.Lease <= 0 {
		return
	}
	now := time.Now()
	b.mu.Lock()
	var then []func()
	for _, a := range b.inFly {
		if a.deadline.IsZero() || !now.After(a.deadline) {
			continue
		}
		brokerLeaseRevocations.Inc()
		b.unleaseLocked(a)
		msg := fmt.Sprintf("lease expired after %d attempts", b.started[a.job.ID])
		then = append(then, b.settleLocked(a.job, a.worker, JobResult{ID: a.job.ID, Err: msg}))
	}
	b.mu.Unlock()
	for _, f := range then {
		f()
	}
	if len(then) > 0 {
		b.dispatch()
	}
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
	if err := json.Unmarshal(sc.Bytes(), &hello); err != nil || hello.Type != "hello" || hello.Worker == "" {
		brokerProtocolErrors.Inc()
		_ = w.send(Envelope{Type: "error", Error: "protocol: expected a hello frame with a worker ID"})
		_ = conn.Close()
		return
	}
	w.id = hello.Worker
	w.capacity = max(hello.Capacity, 1)
	// A session resynchronizes before taking new work: resume and
	// result-resend frames must be processed ahead of any dispatch, or
	// the broker would redispatch a job its own worker still holds. The
	// worker lifts the gate with a "ready" frame.
	w.syncing = true
	w.lastBeat = time.Now()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = conn.Close()
		return
	}
	// A reconnect supersedes the worker's old session: its leases go
	// back to the queue, where this session's resume frames re-adopt
	// them.
	old := b.sessions[w.id]
	if old != nil {
		b.dropSessionLocked(old)
	}
	b.sessions[w.id] = w
	b.mu.Unlock()
	if old != nil {
		_ = old.conn.Close()
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
			b.finish(w, env)
			b.dispatch()
		default:
			// Unknown type: liveness already recorded.
		}
	}
	_ = conn.Close()
	b.mu.Lock()
	requeued := b.dropSessionLocked(w)
	b.mu.Unlock()
	if requeued {
		b.dispatch()
	}
}

// dropSessionLocked ends a session: every job it still leases goes back
// to the queue — where the worker's next session can resume it — and
// the session leaves the dispatch table unless a newer one has already
// replaced it. It serves both a lost connection and a superseding
// reconnect, and it is idempotent: the second call finds nothing held.
// Reports whether any job was requeued.
func (b *Broker) dropSessionLocked(w *brokerWorker) bool {
	w.mu.Lock()
	held := w.active
	w.active = make(map[string]Job)
	w.mu.Unlock()
	requeued := false
	for id := range held {
		// Only jobs this session still leases: a lease expiry may already
		// have moved one elsewhere.
		if a, ok := b.inFly[id]; ok && a.worker == w {
			b.requeueLocked(a)
			requeued = true
		}
	}
	if b.sessions[w.id] == w {
		delete(b.sessions, w.id)
	}
	return requeued
}

// handleResume processes one {"type":"resume"} frame: a reconnected
// session still holds this job (executing or finished-but-unacked) and
// asks to keep it. The broker re-adopts the assignment if the job is
// still this worker's to finish — its attempt still the queued one or
// the one a crash hid, not completed, not reassigned — and otherwise
// tells the worker to abandon it. Adoption writes nothing.
func (b *Broker) handleResume(w *brokerWorker, env Envelope) {
	id := env.ID
	b.mu.Lock()
	adopted := false
	if _, done := b.results[id]; !done {
		if a, ok := b.inFly[id]; ok {
			// The hello requeued every lease of the worker's earlier
			// session, so a lease in flight is either this session's
			// already or another worker's.
			adopted = a.worker == w
		} else if j, ok := b.takePendingLocked(id, env.Attempt); ok {
			b.leaseLocked(&assignment{job: j, attempt: b.started[id]}, w)
			adopted = true
		}
	}
	if adopted {
		w.mu.Lock()
		w.resumes++
		w.mu.Unlock()
	}
	b.mu.Unlock()
	if !adopted {
		_ = w.send(Envelope{Type: "abandon", ID: id})
	}
}

// finish records one worker-reported result and acks it, so the worker
// retaining it for resend across reconnects knows it can stop. Results
// from revoked assignments are acked and dropped.
func (b *Broker) finish(w *brokerWorker, env Envelope) {
	b.mu.Lock()
	var job Job
	match := false
	if a, ok := b.inFly[env.ID]; ok {
		if a.worker.id == w.id && (env.Attempt == 0 || env.Attempt == a.attempt) {
			b.unleaseLocked(a)
			job, match = a.job, true
		}
	} else if _, done := b.results[env.ID]; !done {
		// Not assigned — but a worker may legitimately deliver a result
		// for a job our disconnect handling already requeued: the
		// execution finished while the connection was down and the
		// result was resent after the reconnect. If the queued entry is
		// still this execution, apply it instead of making another
		// worker redo the work.
		job, match = b.takePendingLocked(env.ID, env.Attempt)
	}
	if !match {
		// Stale or duplicate: the assignment was revoked and retried
		// elsewhere, or the result was already applied (e.g. delivered
		// right before a connection drop and resent after the reconnect).
		if _, done := b.results[env.ID]; done {
			brokerDuplicateResults.Inc()
		}
		b.mu.Unlock()
		_ = w.send(Envelope{Type: "ack", ID: env.ID})
		return
	}
	then := b.settleLocked(job, w, JobResult{ID: env.ID, Err: env.Error, Output: env.Output})
	b.mu.Unlock()
	// The ack goes out before a retry can be redispatched: the worker
	// drops its retained copy on the ack, and a task frame for a job it
	// still holds would be taken for a duplicate.
	_ = w.send(Envelope{Type: "ack", ID: env.ID})
	then()
}

// settleLocked is the one exit from a lease, for a reported result and
// an expired lease alike. A retryable failure with budget left is
// marked pending in the durable queue and requeued after its backoff,
// preferring a different worker; anything else is recorded as the
// job's result. The record is made under b.mu; the returned function
// schedules the retry or releases and delivers the result, and must be
// called after b.mu is released.
func (b *Broker) settleLocked(j Job, from *brokerWorker, res JobResult) func() {
	n := b.started[j.ID]
	rp := b.opts.Retry
	if rp.Enabled() && n < rp.MaxAttempts && rp.RetryableMessage(res.Err) {
		b.avoid[j.ID] = from
		b.dq.savePending(j, n) // durable before the backoff gap
		return func() { b.requeueAfter(j, rp.Backoff(n)) }
	}
	delete(b.avoid, j.ID)
	b.results[j.ID] = res
	b.dq.saveDone(res, n)
	// The broker is open here: stop empties the queue and the lease
	// table under b.mu, so nothing is left to settle after it.
	b.sending.Add(1)
	return func() {
		b.release(j)
		// Off this goroutine, so a slow Results consumer can never stall
		// a worker's read loop (and with it heartbeat processing).
		go b.deliver(res)
	}
}

// requeueAfter puts a job back on the pending queue once its backoff
// elapses. It is only reached from the retry paths, so it also counts
// the retry. The durable queue already marks the job pending before the
// backoff starts, so a crash during the gap cannot lose it.
func (b *Broker) requeueAfter(j Job, d time.Duration) {
	brokerRetries.Inc()
	time.AfterFunc(d, func() {
		b.mu.Lock()
		// A resubmit during the gap may already have queued or run the
		// job again.
		_, leased := b.inFly[j.ID]
		_, done := b.results[j.ID]
		if b.closed || leased || done || b.pendingIndexLocked(j.ID) >= 0 {
			b.mu.Unlock()
			return
		}
		b.enqueueLocked(j)
		b.mu.Unlock()
		b.dispatch()
	})
}

// leaseLocked hands a's job to session w: the pending → leased
// transition for a dispatch and a resume alike.
func (b *Broker) leaseLocked(a *assignment, w *brokerWorker) {
	a.worker = w
	if b.opts.Lease > 0 {
		a.deadline = time.Now().Add(b.opts.Lease)
	}
	b.inFly[a.job.ID] = a
	w.mu.Lock()
	w.active[a.job.ID] = a.job
	w.mu.Unlock()
}

// unleaseLocked takes a's job off its session and out of flight.
func (b *Broker) unleaseLocked(a *assignment) {
	delete(b.inFly, a.job.ID)
	a.worker.mu.Lock()
	delete(a.worker.active, a.job.ID)
	a.worker.mu.Unlock()
}

// requeueLocked is the leased → pending transition without a retry: the
// session lost the job, not the job its attempt.
func (b *Broker) requeueLocked(a *assignment) {
	b.unleaseLocked(a)
	b.dq.savePending(a.job, b.started[a.job.ID])
	b.enqueueLocked(a.job)
}

func (b *Broker) enqueueLocked(j Job) {
	b.pending = append(b.pending, j)
	brokerQueueDepth.Inc()
}

func (b *Broker) pendingIndexLocked(id string) int {
	for i, p := range b.pending {
		if p.ID == id {
			return i
		}
	}
	return -1
}

// takePendingLocked removes a queued job for a worker that turns out to
// hold it, when the worker's attempt (0 matches any) is the job's
// latest: the last one started, or the one after it, which a dispatch
// started before a crash and never wrote. The latter becomes the job's
// latest attempt, so no attempt number is issued twice.
func (b *Broker) takePendingLocked(id string, attempt int) (Job, bool) {
	i := b.pendingIndexLocked(id)
	n := b.started[id]
	if i < 0 || (attempt != 0 && attempt != n && attempt != n+1) {
		return Job{}, false
	}
	b.started[id] = max(n, attempt)
	j := b.pending[i]
	b.pending = append(b.pending[:i], b.pending[i+1:]...)
	brokerQueueDepth.Dec()
	return j, true
}

// dispatch hands pending jobs to workers with free capacity, preferring
// a worker other than the one a job last failed on.
func (b *Broker) dispatch() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.pending) > 0 {
		j := b.pending[0]
		var target, fallback *brokerWorker
		for _, w := range b.sessions {
			w.mu.Lock()
			free := !w.syncing && len(w.active) < w.capacity
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
		b.started[j.ID]++
		a := &assignment{job: j, attempt: b.started[j.ID]}
		b.leaseLocked(a, target)
		if err := target.send(Envelope{Type: "task", ID: j.ID, Kind: j.Kind, Payload: j.Payload, Attempt: a.attempt}); err != nil {
			// The attempt never reached the worker; the serve loop will
			// notice the dead connection.
			b.started[j.ID]--
			b.requeueLocked(a)
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
	ID       string    `json:"id"`
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
		Workers: len(b.sessions),
		Results: len(b.results),
		Durable: b.dq != nil,
	}
	for _, a := range b.inFly {
		st.InFlight = append(st.InFlight, AssignmentState{
			JobID:         a.job.ID,
			Kind:          a.job.Kind,
			Worker:        a.worker.id,
			LeaseDeadline: a.deadline,
			Executions:    b.started[a.job.ID],
		})
	}
	for _, w := range b.sessions {
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
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// Executions reports how many assignments a job has consumed so far,
// for tests and reporting.
func (b *Broker) Executions(id string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started[id]
}
