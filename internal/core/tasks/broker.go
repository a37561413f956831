package tasks

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
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
// A lost machine cannot lose an experiment: a dropped connection, a
// heartbeat silent past BrokerOptions.HeartbeatTimeout and an
// assignment past BrokerOptions.Lease each take the job back from its
// session — a retry under BrokerOptions.Retry for an expired lease, a
// plain requeue otherwise — and with BrokerOptions.DB the queue
// survives a broker crash. Submit is idempotent per job ID. Every job's
// state, and every move of it, is in the broker's jobTable.

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

// Executor is a job queue that runs jobs out of process: a *Broker, or
// a sharded *shard.Fleet of them. Submit queues a job with no limit on
// how many, and fails only once the executor is closed; Results
// delivers each job's result; Close stops the executor and, once the
// deliveries in flight have landed, closes Results.
type Executor interface {
	Submit(j Job) error
	Results() <-chan JobResult
	Close()
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
	// Deprecated: Admission is ignored. Per-tenant admission is the
	// gateway's (gateway.Controller), which submits only what it has
	// admitted; the field stays declared because the benchmark module
	// (benchmark/svc.go) still sets it.
	Admission any
}

// Broker is the Celery-analogue job queue: it accepts worker
// connections and distributes submitted jobs among them. It owns the
// sessions, the frames and the clock; every job's state is in its
// jobTable, which it changes only under mu.
type Broker struct {
	ln       net.Listener
	opts     BrokerOptions
	mu       sync.Mutex
	jobs     *jobTable
	resCh    chan JobResult
	sending  sync.WaitGroup           // deliveries in flight; stop waits for them before closing resCh
	sessions map[string]*brokerWorker // worker ID -> live session
	serial   uint64                   // the last session's serial
	born     time.Time                // lastBeat's origin, on the monotonic clock
	done     chan struct{}
	closed   bool
}

// brokerWorker is one session's connection. Everything but lastBeat is
// guarded by the broker's mu.
type brokerWorker struct {
	conn     net.Conn
	enc      *json.Encoder
	encMu    sync.Mutex
	key      session
	capacity int
	lastBeat atomic.Int64 // when the last frame came: nanoseconds since Broker.born
	resumes  int
	syncing  bool // between hello and ready: no dispatch yet
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
	var col database.Collection
	if opts.DB != nil {
		col = opts.DB.Collection(QueueCollection)
	}
	b := &Broker{
		ln:       ln,
		opts:     opts,
		jobs:     newJobTable(col, opts.Lease, opts.Retry),
		resCh:    make(chan JobResult, 1024),
		sessions: make(map[string]*brokerWorker),
		born:     time.Now(),
		done:     make(chan struct{}),
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
// twice. With a durable queue this holds across broker restarts. It
// fails only when the broker is closed, dropping the job.
func (b *Broker) Submit(j Job) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("tasks: broker closed")
	}
	replay, queued := b.jobs.submit(j)
	then := b.settledLocked(replay...) // delivered like a fresh result
	b.mu.Unlock()
	then()
	if queued {
		b.dispatch()
	}
	return nil
}

// settledLocked registers the deliveries among sts under b.mu, while
// the broker is open, which orders them before stop closes resCh. The
// function it returns, run once b.mu is released, schedules each retry
// and delivers each result off the caller's goroutine, so a
// slow Results consumer cannot stall a worker's read loop or a fleet
// failover that resubmits thousands of finished jobs.
func (b *Broker) settledLocked(sts ...settlement) func() {
	for _, st := range sts {
		if !st.retry {
			b.sending.Add(1)
		}
	}
	return func() {
		for _, st := range sts {
			if st.retry {
				b.retryAfter(st.job.ID, st.backoff)
				continue
			}
			go b.deliver(st.res)
		}
	}
}

// retryAfter queues a waiting job again once its backoff elapses. It
// is only reached from the retry paths, so it also counts the retry.
func (b *Broker) retryAfter(id string, d time.Duration) {
	brokerRetries.Inc()
	time.AfterFunc(d, func() {
		b.mu.Lock()
		readmitted := !b.closed && b.jobs.readmit(id)
		b.mu.Unlock()
		if readmitted {
			b.dispatch()
		}
	})
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
	return b.jobs.result(id)
}

// deliver publishes a result without ever blocking past Close, so a
// delivery goroutine cannot leak on a consumer that went away. The
// result is recorded before deliver is called — the channel is a
// notification path, the table the source of truth — and the caller
// registered the delivery (see settledLocked).
func (b *Broker) deliver(res JobResult) {
	defer b.sending.Done()
	select {
	case b.resCh <- res:
	case <-b.done:
	}
}

// Close shuts the broker down. Without a durable queue, unfinished jobs
// are recorded as failed ("broker closed") so callers polling Result
// see a terminal state; with one, they are parked as pending in the
// store for a later NewBrokerWithOptions to resume. Blocked deliveries
// are released, and Results is closed once they are gone; results
// still buffered stay receivable.
func (b *Broker) Close() { b.stop(true) }

// Kill stops the broker abruptly: listener and connections die, but no
// failure results are recorded and the durable queue is left exactly as
// the crash found it. It simulates the broker process dying mid-launch
// — the scenario NewBrokerWithOptions recovery exists for.
func (b *Broker) Kill() { b.stop(false) }

// stop is Close (graceful) and Kill. Either way the job table keeps
// only done jobs, so a session that drops afterwards finds no lease to
// requeue and nothing reaches the durable queue after the stop. Results
// is closed once no delivery can still send on it: none registers past
// b.closed, and every registered one falls out through b.done.
func (b *Broker) stop(graceful bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	close(b.done)
	b.jobs.stop(graceful)
	conns := make([]net.Conn, 0, len(b.sessions))
	for _, w := range b.sessions {
		conns = append(conns, w.conn)
	}
	b.mu.Unlock()
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
		// A quarter of the shorter enabled deadline, at least 5ms.
		d := b.opts.Lease
		if h := b.opts.HeartbeatTimeout; h > 0 && (d <= 0 || h < d) {
			d = h
		}
		tick = max(d/4, 5*time.Millisecond)
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-b.done:
			return
		case <-t.C:
		}
		if b.opts.HeartbeatTimeout > 0 {
			b.checkHeartbeats()
		}
		if b.opts.Lease > 0 {
			b.checkLeases()
		}
	}
}

// checkHeartbeats revokes workers that have gone silent. Closing the
// connection routes through the same requeue path as a TCP disconnect,
// so no job on a hung worker is lost — and a worker that was merely
// partitioned can reconnect and resume.
func (b *Broker) checkHeartbeats() {
	silentSince := int64(time.Since(b.born) - b.opts.HeartbeatTimeout)
	b.mu.Lock()
	var dead []net.Conn
	for _, w := range b.sessions {
		if w.lastBeat.Load() < silentSince {
			dead = append(dead, w.conn)
		}
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
	b.mu.Lock()
	expired := b.jobs.expire(time.Now())
	then := b.settledLocked(expired...)
	b.mu.Unlock()
	if len(expired) == 0 {
		return
	}
	brokerLeaseRevocations.Add(float64(len(expired)))
	then()
	b.dispatch()
}

func (b *Broker) serve(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		_ = conn.Close()
		return
	}
	var hello Envelope
	if json.Unmarshal(sc.Bytes(), &hello) != nil || hello.Type != "hello" || hello.Worker == "" {
		brokerProtocolErrors.Inc()
		_ = json.NewEncoder(conn).Encode(Envelope{Type: "error", Error: "protocol: expected a hello frame with a worker ID"})
		_ = conn.Close()
		return
	}
	// A session resynchronizes before taking new work: resume and
	// result-resend frames must be processed ahead of any dispatch, or
	// the broker would redispatch a job its own worker still holds. The
	// worker lifts the gate with a "ready" frame.
	w := &brokerWorker{conn: conn, enc: json.NewEncoder(conn), capacity: max(hello.Capacity, 1), syncing: true}
	w.lastBeat.Store(int64(time.Since(b.born)))
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		_ = conn.Close()
		return
	}
	b.serial++
	w.key = session{worker: hello.Worker, serial: b.serial}
	// A reconnect supersedes the worker's old session: its leases go
	// back to the queue, where this session's resume frames re-adopt
	// them.
	old := b.sessions[hello.Worker]
	if old != nil {
		b.dropSessionLocked(old)
	}
	b.sessions[hello.Worker] = w
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
		w.lastBeat.Store(int64(time.Since(b.born)))
		switch env.Type {
		case "heartbeat":
			brokerHeartbeats.Inc()
		case "ready":
			b.mu.Lock()
			w.syncing = false
			b.mu.Unlock()
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

// dropSessionLocked ends a session, for a lost connection and a
// superseding reconnect alike: its leases go back to the queue, where
// the worker's next session can resume them, and it leaves the session
// table unless a newer one replaced it. Reports whether any job was
// requeued; a second call finds nothing held.
func (b *Broker) dropSessionLocked(w *brokerWorker) bool {
	if b.sessions[w.key.worker] == w {
		delete(b.sessions, w.key.worker)
	}
	return b.jobs.drop(w.key)
}

// handleResume answers a {"type":"resume"} frame — a reconnected
// session still holds the job — by adopting the job, or telling the
// worker to abandon it when it is no longer the session's to finish.
func (b *Broker) handleResume(w *brokerWorker, env Envelope) {
	b.mu.Lock()
	adopted := b.jobs.adopt(w.key, env.ID, env.Attempt, time.Now())
	if adopted {
		w.resumes++
	}
	b.mu.Unlock()
	if !adopted {
		_ = w.send(Envelope{Type: "abandon", ID: env.ID})
	}
}

// finish records one worker-reported result and acks it, so the worker
// retaining it for resend across reconnects knows it can stop. Results
// from revoked assignments are acked and dropped.
func (b *Broker) finish(w *brokerWorker, env Envelope) {
	b.mu.Lock()
	st, ok := b.jobs.finish(w.key, JobResult{ID: env.ID, Err: env.Error, Output: env.Output}, env.Attempt)
	then := func() {}
	if ok {
		then = b.settledLocked(st)
	} else if _, done := b.jobs.result(env.ID); done {
		// Already applied, e.g. delivered right before a connection drop
		// and resent after the reconnect; otherwise the assignment was
		// revoked and retried elsewhere.
		brokerDuplicateResults.Inc()
	}
	b.mu.Unlock()
	// The ack goes out before a retry can be redispatched: the worker
	// drops its retained copy on the ack, and a task frame for a job it
	// still holds would be taken for a duplicate.
	_ = w.send(Envelope{Type: "ack", ID: env.ID})
	then()
}

// dispatch hands queued jobs to sessions with free capacity, preferring
// a session other than the one a job last failed on.
func (b *Broker) dispatch() {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		j, avoid, ok := b.jobs.next()
		if !ok {
			return
		}
		var target, fallback *brokerWorker
		for _, w := range b.sessions {
			if w.syncing || b.jobs.held(w.key) >= w.capacity {
				continue
			}
			if w.key == avoid {
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
		attempt := b.jobs.lease(target.key, now)
		if err := target.send(Envelope{Type: "task", ID: j.ID, Kind: j.Kind, Payload: j.Payload, Attempt: attempt}); err != nil {
			// The attempt never reached the worker; the serve loop will
			// notice the dead connection.
			b.jobs.retract(j.ID)
			return
		}
	}
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
	st := BrokerState{Workers: len(b.sessions)}
	b.jobs.state(&st)
	for _, w := range b.sessions {
		st.Sessions = append(st.Sessions, WorkerSessionState{
			ID:       w.key.worker,
			Addr:     w.conn.RemoteAddr().String(),
			Capacity: w.capacity,
			Active:   b.jobs.held(w.key),
			Resumes:  w.resumes,
			LastBeat: b.born.Add(time.Duration(w.lastBeat.Load())),
		})
	}
	b.mu.Unlock()
	b.jobs.durableState(&st)
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// Executions reports how many assignments a job has consumed so far,
// for tests and reporting: 0 for an unknown job, and for one still
// unfinished when the broker stopped.
func (b *Broker) Executions(id string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.jobs.executions(id)
}
