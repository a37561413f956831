package tasks

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"gem5art/internal/faultinject"
)

// WorkerOptions configures a Worker beyond address and handler table.
type WorkerOptions struct {
	Capacity int
	Handlers map[string]JobHandler
	// HeartbeatInterval between {"type":"heartbeat"} messages. 0 means
	// the 500ms default; negative disables heartbeats.
	HeartbeatInterval time.Duration
	// Injector is consulted at "worker.handle" before each job and at
	// "worker.heartbeat" before each beat — the fault-injection hook for
	// wedged and crashing workers.
	Injector *faultinject.Injector
	// ID is the worker's stable session identity: the broker acks its
	// results by it, and after a reconnect the worker resumes in-flight
	// jobs and resends unacked results under it. Empty generates one
	// with NewWorkerID.
	ID string
	// Reconnect re-dials the broker with backoff after a connection
	// loss instead of terminating the worker.
	Reconnect bool
	// ReconnectPolicy schedules the re-dial backoff. MaxAttempts bounds
	// *consecutive* failed dials (<= 0 retries forever); the zero value
	// uses DefaultReconnectPolicy.
	ReconnectPolicy RetryPolicy
	// Dial overrides the broker dial (default net.Dial "tcp") — the
	// hook chaos tests use to interpose faultinject.NetChaos.
	Dial func(addr string) (net.Conn, error)
	// FaultLog, when set, supplies the injected faults that have fired
	// in this worker process — included in the FailureBundle of a
	// recovered panic so a chaos failure is traceable to the fault that
	// provoked it. Wire it to faultinject DiskChaos/NetChaos event logs.
	FaultLog func() []string
}

// DefaultReconnectPolicy retries forever with 100ms..5s exponential
// backoff and 20% jitter — a partitioned worker machine should rejoin
// the campaign whenever the network heals.
func DefaultReconnectPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 0,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    5 * time.Second,
		Multiplier:  2,
		Jitter:      0.2,
	}
}

// NewWorkerID returns a fresh session identity, "<hostname>-<16 hex>",
// for a worker that was not given one.
func NewWorkerID() string {
	var buf [8]byte
	_, _ = rand.Read(buf[:])
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return host + "-" + hex.EncodeToString(buf[:])
}

// workerJob tracks one assignment through its life on the worker: from
// task frame, through execution, to the broker's ack. The result is
// retained until acked so it can be resent across a reconnect — the
// broker deduplicates on (job, worker, attempt).
type workerJob struct {
	env       Envelope  // the task frame: ID, Kind, Payload, Attempt
	result    *Envelope // set when execution finishes, cleared by ack
	abandoned bool      // broker told us this assignment is no longer ours
}

// JobHandler executes one kind of job, optionally returning a
// JSON-serializable output delivered back through the broker.
type JobHandler func(payload json.RawMessage) (output any, err error)

// Worker connects to a broker, executes jobs with registered handlers,
// and reports results. With WorkerOptions.Reconnect it survives broker
// restarts and network faults: the connection is re-dialed under the
// reconnect policy, in-flight jobs are resumed through the session
// protocol, and finished-but-unacked results are resent.
type Worker struct {
	addr     string
	id       string
	handlers map[string]JobHandler
	capacity int
	inject   *faultinject.Injector
	dial     func(addr string) (net.Conn, error)
	opts     WorkerOptions

	mu      sync.Mutex // guards conn/enc swap, active, closing
	conn    net.Conn
	enc     *json.Encoder
	encMu   sync.Mutex // serializes frame writes
	active  map[string]*workerJob
	closing bool

	wg         sync.WaitGroup
	stop       chan struct{}
	done       chan struct{}
	reconnects int
}

// NewWorker connects to the broker at addr with the given parallel
// capacity and handler table.
func NewWorker(addr string, capacity int, handlers map[string]JobHandler) (*Worker, error) {
	return NewWorkerWithOptions(addr, WorkerOptions{Capacity: capacity, Handlers: handlers})
}

// NewWorkerWithOptions connects a worker with explicit options. The
// initial dial must succeed; later connection losses are retried only
// when opts.Reconnect is set.
func NewWorkerWithOptions(addr string, opts WorkerOptions) (*Worker, error) {
	capacity := opts.Capacity
	if capacity < 1 {
		capacity = 1
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	id := opts.ID
	if id == "" {
		id = NewWorkerID()
	}
	w := &Worker{
		addr:     addr,
		id:       id,
		handlers: opts.Handlers,
		capacity: capacity,
		inject:   opts.Injector,
		dial:     dial,
		opts:     opts,
		active:   make(map[string]*workerJob),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("tasks: worker dial: %w", err)
	}
	if err := w.resync(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go w.run(conn)
	interval := opts.HeartbeatInterval
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	if interval > 0 {
		go w.heartbeat(interval)
	}
	return w, nil
}

// Done is closed when the worker terminates for good: Close was called,
// the connection dropped with reconnect disabled, or the reconnect
// policy ran out of attempts.
func (w *Worker) Done() <-chan struct{} { return w.done }

// Reconnects reports how many times this worker has re-established its
// broker session.
func (w *Worker) Reconnects() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reconnects
}

// installSession swaps the live connection and greets the broker. The
// swap and the hello share one encMu critical section so the
// independent heartbeat timer can never slip a frame onto the new
// connection ahead of the greeting — the broker requires hello first.
func (w *Worker) installSession(conn net.Conn) error {
	w.encMu.Lock()
	defer w.encMu.Unlock()
	enc := json.NewEncoder(conn)
	w.mu.Lock()
	w.conn = conn
	w.enc = enc
	w.mu.Unlock()
	return enc.Encode(Envelope{Type: "hello", Worker: w.id, Capacity: w.capacity})
}

func (w *Worker) isClosing() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closing
}

// sendEnv writes one frame to the current session. A failure is not
// fatal: the read loop observes the dead connection and the reconnect
// path resynchronizes state.
func (w *Worker) sendEnv(env Envelope) error {
	w.mu.Lock()
	enc := w.enc
	w.mu.Unlock()
	if enc == nil {
		return fmt.Errorf("tasks: worker has no live session")
	}
	w.encMu.Lock()
	defer w.encMu.Unlock()
	return enc.Encode(env)
}

// run owns the worker's session lifecycle: read the current connection
// until it dies, then — if the worker is configured to survive — redial
// with backoff and resume.
func (w *Worker) run(conn net.Conn) {
	defer close(w.done)
	for {
		w.readSession(conn)
		if w.isClosing() || !w.opts.Reconnect {
			return
		}
		conn = w.redial()
		if conn == nil {
			return
		}
	}
}

// redial re-establishes the broker session under the reconnect policy,
// then resynchronizes: resume frames for jobs still executing, result
// resends for jobs finished while disconnected. Returns nil when the
// worker should terminate instead.
func (w *Worker) redial() net.Conn {
	rp := w.opts.ReconnectPolicy
	if rp.BaseDelay == 0 && rp.MaxDelay == 0 {
		p := DefaultReconnectPolicy()
		p.MaxAttempts = rp.MaxAttempts
		rp = p
	}
	for attempt := 1; ; attempt++ {
		if rp.MaxAttempts > 0 && attempt > rp.MaxAttempts {
			return nil
		}
		select {
		case <-w.stop:
			return nil
		case <-time.After(rp.Backoff(attempt)):
		}
		conn, err := w.dial(w.addr)
		if err != nil {
			continue
		}
		if err := w.resync(conn); err != nil {
			_ = conn.Close()
			continue
		}
		w.mu.Lock()
		w.reconnects++
		w.mu.Unlock()
		return conn
	}
}

// resync replays the session state onto a fresh connection: hello,
// then one resume frame per executing job and one result resend per
// finished-but-unacked job, closed off by a ready frame that lifts the
// broker's dispatch gate for this session. The first connection is the
// same replay of an empty state.
func (w *Worker) resync(conn net.Conn) error {
	if err := w.installSession(conn); err != nil {
		return err
	}
	w.mu.Lock()
	resumes := make([]Envelope, 0, len(w.active))
	resends := make([]Envelope, 0, len(w.active))
	for _, j := range w.active {
		if j.abandoned {
			continue
		}
		if j.result != nil {
			resends = append(resends, *j.result)
		} else {
			resumes = append(resumes, Envelope{Type: "resume", ID: j.env.ID, Attempt: j.env.Attempt})
		}
	}
	w.mu.Unlock()
	for _, env := range resumes {
		if err := w.sendEnv(env); err != nil {
			return err
		}
	}
	for _, env := range resends {
		if err := w.sendEnv(env); err != nil {
			return err
		}
	}
	return w.sendEnv(Envelope{Type: "ready"})
}

// heartbeat periodically tells the broker this worker is alive. It runs
// on its own timer, independent of any executing job, so a long
// simulation cannot starve liveness — and it survives session swaps,
// beating on whatever connection is current. A wedged worker (simulated
// by a Hang fault at "worker.heartbeat") stops beating and is revoked
// even though its TCP connection stays open.
func (w *Worker) heartbeat(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.done:
			return
		case <-t.C:
		}
		if err := w.inject.Hit("worker.heartbeat"); err != nil {
			continue
		}
		// Send failures are not fatal: the read loop notices the dead
		// connection and the reconnect path repairs the session.
		_ = w.sendEnv(Envelope{Type: "heartbeat"})
	}
}

// readSession processes frames from one connection until it dies.
func (w *Worker) readSession(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			continue // torn frame: the connection is about to die anyway
		}
		switch env.Type {
		case "task":
			w.mu.Lock()
			if w.closing {
				w.mu.Unlock()
				continue
			}
			if _, dup := w.active[env.ID]; dup {
				// A duplicated frame (or a redispatch raced with our
				// resume): this execution is already running here.
				w.mu.Unlock()
				continue
			}
			j := &workerJob{env: env}
			w.active[env.ID] = j
			w.wg.Add(1)
			w.mu.Unlock()
			go w.runJob(j)
		case "ack":
			w.mu.Lock()
			delete(w.active, env.ID)
			w.mu.Unlock()
		case "abandon":
			w.mu.Lock()
			if j, ok := w.active[env.ID]; ok {
				if j.result != nil {
					delete(w.active, env.ID) // finished: nothing left to do
				} else {
					j.abandoned = true // still executing: discard on completion
				}
			}
			w.mu.Unlock()
		default:
			// "error" or unknown: nothing to do; the broker closes the
			// connection after protocol errors and the session loop
			// handles it.
		}
	}
	_ = conn.Close()
}

// runJob executes one assignment. An injected Crash fault simulates the
// worker process dying mid-run: the connection drops, the job is
// forgotten, and no result is ever sent.
func (w *Worker) runJob(j *workerJob) {
	defer w.wg.Done()
	env := j.env
	res := Envelope{Type: "result", ID: env.ID, Attempt: env.Attempt}
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(faultinject.CrashPanic); ok {
					crashed = true
					w.mu.Lock()
					delete(w.active, env.ID)
					conn := w.conn
					w.mu.Unlock()
					if conn != nil {
						_ = conn.Close()
					}
					return
				}
				panic(r)
			}
		}()
		if ferr := w.inject.Hit("worker.handle"); ferr != nil {
			res.Error = ferr.Error()
			return
		}
		h, ok := w.handlers[env.Kind]
		if !ok {
			res.Error = fmt.Sprintf("no handler for kind %q", env.Kind)
		} else if out, err := w.safeHandle(h, env); err != nil {
			res.Error = err.Error()
		} else if out != nil {
			if raw, merr := json.Marshal(out); merr == nil {
				res.Output = raw
			} else {
				res.Error = "marshal output: " + merr.Error()
			}
		}
	}()
	if crashed {
		return
	}
	w.mu.Lock()
	if j.abandoned {
		delete(w.active, env.ID)
		w.mu.Unlock()
		return
	}
	j.result = &res // retained until the broker's ack
	w.mu.Unlock()
	// Best-effort send: if the connection is down, resync resends the
	// retained result after the next reconnect.
	_ = w.sendEnv(res)
}

// safeHandle executes one handler, converting a panic into a
// structured, retryable job failure instead of killing the worker: the
// error carries a FailureBundle (stack, run key, the injected faults
// that fired in this process) so the launcher can diagnose the attempt
// the retry replaces. Injected CrashPanics re-panic — they simulate the
// whole process dying and must reach runJob's crash recovery.
func (w *Worker) safeHandle(h JobHandler, env Envelope) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, crash := r.(faultinject.CrashPanic); crash {
				panic(r)
			}
			b := &FailureBundle{
				Reason:  "panic",
				Error:   fmt.Sprint(r),
				Stack:   string(debug.Stack()),
				JobID:   env.ID,
				Kind:    env.Kind,
				Attempt: env.Attempt,
				Worker:  w.id,
				RunKey:  runKeyFromPayload(env.Payload),
			}
			if w.opts.FaultLog != nil {
				b.Faults = w.opts.FaultLog()
			}
			err = fmt.Errorf("%s", b.Encode())
		}
	}()
	return h(env.Payload)
}

// Kill drops the worker's connection abruptly without the graceful
// drain — the test hook for simulating machine loss. With Reconnect
// unset the worker terminates; with it set, this is a connection flap
// the session layer recovers from.
func (w *Worker) Kill() {
	w.mu.Lock()
	conn := w.conn
	w.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Close disconnects the worker after in-flight jobs finish.
func (w *Worker) Close() {
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		return
	}
	w.closing = true
	conn := w.conn
	w.mu.Unlock()
	close(w.stop)
	w.wg.Wait()
	if conn != nil {
		_ = conn.Close()
	}
	<-w.done
}
