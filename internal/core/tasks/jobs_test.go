package tasks

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"gem5art/internal/database"
)

// The job table is checked against jobModel, a reference written for
// obviousness rather than speed: one record per job naming its state,
// the queue a slice of IDs, the durable store a slice of documents. An
// op sequence drives both, and after every op their states must agree
// and the table's invariants must hold. Sequences come from bytes, so
// the seeded test and FuzzJobTable share one decoder:
//
//	byte 0:         the table's configuration (see newJobHarness)
//	then per op:    opcode, a, b — the opcode taken mod numJobOps
const (
	opSubmit   = iota // job a, payload b
	opDispatch        // lease the head to worker a; b&1: the task frame is lost
	opResultOK        // worker a reports held job b
	opResultRetry
	opResultFail
	opStale  // worker a reports job b at an arbitrary attempt
	opExpire // the clock moves by a quarter lease per a, then leases expire
	opDrop   // worker a's session is lost; it reconnects
	opResume // worker a resumes held job b
	opFire   // backoff timer a fires
	opKill   // crash, then a new table over the same store
	opClose  // graceful close, then a new table over the same store
	numJobOps
)

const (
	modelJobs    = 5
	modelWorkers = 3
)

type mState int

const (
	mQueued mState = iota + 1
	mLeased
	mWaiting
	mDone
)

// mJob is everything the model knows about one job.
type mJob struct {
	job      Job
	state    mState
	started  int
	holder   session // while leased
	attempt  int     // while leased
	deadline time.Time
	avoid    session
	res      JobResult // once done
}

// mDoc is one durable queue document.
type mDoc struct {
	id    string
	job   Job
	done  bool
	execs int
	res   JobResult
}

type jobModel struct {
	ttl     time.Duration
	retry   RetryPolicy
	durable bool
	jobs    map[string]*mJob
	queue   []string // queued job IDs, oldest first
	disk    []*mDoc  // in first-write order
}

func (m *jobModel) write(id string, set func(d *mDoc)) {
	if !m.durable {
		return
	}
	for _, d := range m.disk {
		if d.id == id {
			set(d)
			return
		}
	}
	d := &mDoc{id: id}
	set(d)
	m.disk = append(m.disk, d)
}

func (m *jobModel) writePending(x *mJob) {
	m.write(x.job.ID, func(d *mDoc) { d.job, d.done, d.execs = x.job, false, x.started })
}

func (m *jobModel) toQueue(x *mJob) {
	x.state = mQueued
	m.queue = append(m.queue, x.job.ID)
}

func (m *jobModel) fromQueue(id string) {
	i := slices.Index(m.queue, id)
	m.queue = slices.Delete(m.queue, i, i+1)
}

func (m *jobModel) toLease(x *mJob, s session, now time.Time) {
	x.state, x.holder, x.attempt, x.deadline = mLeased, s, x.started, time.Time{}
	if m.ttl > 0 {
		x.deadline = now.Add(m.ttl)
	}
}

func (m *jobModel) submit(j Job) ([]settlement, bool) {
	x := m.jobs[j.ID]
	if x != nil && x.state == mDone {
		return []settlement{{job: j, res: x.res}}, false
	}
	if x != nil {
		return nil, false
	}
	x = &mJob{job: j}
	m.jobs[j.ID] = x
	m.writePending(x)
	m.toQueue(x)
	return nil, true
}

func (m *jobModel) lease(s session, now time.Time) (string, int, bool) {
	if len(m.queue) == 0 {
		return "", 0, false
	}
	x := m.jobs[m.queue[0]]
	m.queue = m.queue[1:]
	x.started++
	m.toLease(x, s, now)
	return x.job.ID, x.started, true
}

func (m *jobModel) retract(id string) {
	x := m.jobs[id]
	x.started--
	m.writePending(x)
	m.toQueue(x)
}

// latest reports whether a worker's attempt may claim queued job x:
// the last attempt started, the one after it, or 0 (any).
func latest(x *mJob, attempt int) bool {
	return x.state == mQueued && (attempt == 0 || attempt == x.started || attempt == x.started+1)
}

func (m *jobModel) adopt(s session, id string, attempt int, now time.Time) bool {
	x := m.jobs[id]
	switch {
	case x == nil:
		return false
	case x.state == mLeased:
		return x.holder == s
	case latest(x, attempt):
		m.fromQueue(id)
		x.started = max(x.started, attempt, 1) // the worker holds it: it started
		m.toLease(x, s, now)
		return true
	}
	return false
}

func (m *jobModel) finish(s session, res JobResult, attempt int) (settlement, bool) {
	x := m.jobs[res.ID]
	switch {
	case x == nil:
		return settlement{}, false
	case x.state == mLeased && x.holder.worker == s.worker && (attempt == 0 || attempt == x.attempt):
		return m.settle(x, s, res), true
	case latest(x, attempt):
		m.fromQueue(res.ID)
		x.started = max(x.started, attempt, 1) // the worker holds it: it started
		return m.settle(x, s, res), true
	}
	return settlement{}, false
}

func (m *jobModel) settle(x *mJob, from session, res JobResult) settlement {
	rp := m.retry
	if rp.MaxAttempts > 1 && x.started < rp.MaxAttempts && rp.RetryableMessage(res.Err) {
		x.state, x.avoid = mWaiting, from
		m.writePending(x)
		return settlement{job: x.job, retry: true, backoff: rp.Backoff(x.started)}
	}
	x.state, x.avoid, x.res = mDone, session{}, res
	m.write(x.job.ID, func(d *mDoc) { d.done, d.execs, d.res = true, x.started, res })
	return settlement{job: x.job, res: res}
}

func (m *jobModel) sortedIDs() []string { return sortedKeys(m.jobs) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *jobModel) expire(now time.Time) []settlement {
	var sts []settlement
	for _, id := range m.sortedIDs() {
		x := m.jobs[id]
		if x.state == mLeased && !x.deadline.IsZero() && x.deadline.Before(now) {
			msg := fmt.Sprintf("lease expired after %d attempts", x.started)
			sts = append(sts, m.settle(x, x.holder, JobResult{ID: id, Err: msg}))
		}
	}
	return sts
}

func (m *jobModel) readmit(id string) bool {
	x := m.jobs[id]
	if x == nil || x.state != mWaiting {
		return false
	}
	m.toQueue(x)
	return true
}

func (m *jobModel) drop(s session) bool {
	any := false
	for _, id := range m.sortedIDs() {
		if x := m.jobs[id]; x.state == mLeased && x.holder == s {
			m.writePending(x)
			m.toQueue(x)
			any = true
		}
	}
	return any
}

// close is a graceful stop: it keeps only the done jobs, parking the
// leased ones as pending in a durable store, or without one recording
// every unfinished job failed.
func (m *jobModel) close() {
	for _, id := range m.sortedIDs() {
		x := m.jobs[id]
		switch {
		case x.state == mDone:
			continue
		case m.durable && x.state == mLeased:
			m.writePending(x)
		case !m.durable:
			x.state, x.res = mDone, JobResult{ID: id, Err: "broker closed"}
			continue
		}
		delete(m.jobs, id)
	}
	m.queue = nil
}

// recover is a new broker over the model's store.
func (m *jobModel) recover() {
	m.jobs, m.queue = make(map[string]*mJob), nil
	for _, d := range m.disk {
		x := &mJob{job: d.job, started: d.execs}
		m.jobs[d.id] = x
		if d.done {
			x.state, x.res = mDone, d.res
		} else {
			m.toQueue(x)
		}
	}
}

// tableView is the state the table and the model are compared on.
type tableView struct {
	Queue   []Job
	Leases  map[string]leaseView
	Waiting map[string]Job
	Started map[string]int // non-zero counts only
	Avoid   map[string]session
	Results map[string]JobResult
}

type leaseView struct {
	Job      Job
	Holder   session
	Attempt  int
	Deadline time.Time
}

func newTableView() tableView {
	return tableView{
		Leases:  map[string]leaseView{},
		Waiting: map[string]Job{},
		Started: map[string]int{},
		Avoid:   map[string]session{},
		Results: map[string]JobResult{},
	}
}

func viewTable(t *jobTable) tableView {
	v := newTableView()
	for el := t.order.Front(); el != nil; el = el.Next() {
		v.Queue = append(v.Queue, el.Value.(*entry).job)
	}
	for id, e := range t.jobs {
		switch e.state {
		case jobLeased:
			v.Leases[id] = leaseView{e.job, e.holder, e.attempt, e.deadline}
		case jobWaiting:
			v.Waiting[id] = e.job
		case jobDone:
			v.Results[id] = e.res
		}
		if e.started != 0 {
			v.Started[id] = e.started
		}
		if e.avoid != (session{}) {
			v.Avoid[id] = e.avoid
		}
	}
	return v
}

func (m *jobModel) view() tableView {
	v := newTableView()
	for _, id := range m.queue {
		v.Queue = append(v.Queue, m.jobs[id].job)
	}
	for id, x := range m.jobs {
		switch x.state {
		case mLeased:
			v.Leases[id] = leaseView{x.job, x.holder, x.attempt, x.deadline}
		case mWaiting:
			v.Waiting[id] = x.job
		case mDone:
			v.Results[id] = x.res
		}
		if x.started != 0 {
			v.Started[id] = x.started
		}
		if x.avoid != (session{}) {
			v.Avoid[id] = x.avoid
		}
	}
	return v
}

// tableInvariants checks what must hold of any jobTable, whatever led
// to it: the queue and the lease index hold exactly the entries in
// their state, a lease is at the job's latest attempt, and load and
// done count the leases and the results.
func tableInvariants(t *jobTable) error {
	inQueue := 0
	for el := t.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if t.jobs[e.job.ID] != e || e.state != jobQueued || e.elem != el {
			return fmt.Errorf("queue holds %s in state %d", e.job.ID, e.state)
		}
		inQueue++
	}
	load := map[session]int{}
	for id, e := range t.leases {
		if t.jobs[id] != e || e.state != jobLeased || e.attempt < 1 || e.attempt != e.started {
			return fmt.Errorf("lease %s: state %d, attempt %d of %d started", id, e.state, e.attempt, e.started)
		}
		load[e.holder]++
	}
	if !maps.Equal(load, t.load) {
		return fmt.Errorf("load %v, leases count %v", t.load, load)
	}
	states := map[jobState]int{}
	for id, e := range t.jobs {
		if e.job.ID != id {
			return fmt.Errorf("job %s filed under %s", e.job.ID, id)
		}
		states[e.state]++
	}
	if states[jobQueued] != inQueue || states[jobLeased] != len(t.leases) || states[jobDone] != t.done {
		return fmt.Errorf("%d queued, %d leased and %d done; queue %d, leases %d, done count %d",
			states[jobQueued], states[jobLeased], states[jobDone], inQueue, len(t.leases), t.done)
	}
	return nil
}

// jobHarness runs one op sequence against a table and the model. The
// workers are simulated: each has a current session and the jobs it is
// executing, at the attempt it was handed, which it keeps across a lost
// session or a broker crash until it reports or abandons them.
type jobHarness struct {
	tb     testing.TB
	db     database.Store // nil: the queue is in memory
	tbl    *jobTable
	m      *jobModel
	now    time.Time
	serial uint64
	cur    [modelWorkers]session
	held   [modelWorkers]map[string]int
	timers []string       // jobs waiting out a backoff, in the order it began
	issued map[string]int // the highest attempt handed out in this table's life
	op     [3]byte        // the op being applied
}

// newJobHarness decodes the configuration byte: bit 0 makes the queue
// durable, bit 1 gives leases a deadline, bits 2-3 add retry attempts.
func newJobHarness(tb testing.TB, config byte) *jobHarness {
	h := &jobHarness{tb: tb, now: time.Unix(1_000_000_000, 0)}
	m := &jobModel{jobs: map[string]*mJob{}}
	m.durable = config&1 != 0
	if config&2 != 0 {
		m.ttl = time.Second
	}
	m.retry = RetryPolicy{MaxAttempts: 1 + int(config>>2&3), BaseDelay: time.Millisecond, Jitter: 0.5, Seed: int64(config)}
	if m.durable {
		h.db = database.MustOpen("")
	}
	h.m = m
	for w := range h.held {
		h.held[w] = map[string]int{}
	}
	h.open()
	return h
}

// open starts a new table over the harness's store; every worker
// reconnects under a new session.
func (h *jobHarness) open() {
	var col database.Collection
	if h.db != nil {
		col = h.db.Collection(QueueCollection)
	}
	h.tbl = newJobTable(col, h.m.ttl, h.m.retry)
	h.m.recover()
	h.timers, h.issued = nil, map[string]int{}
	for w := range h.cur {
		h.reconnect(w)
	}
}

func (h *jobHarness) reconnect(w int) {
	h.serial++
	h.cur[w] = session{worker: fmt.Sprintf("w%d", w), serial: h.serial}
}

// finish ends the sequence, leaving the queue-depth gauge as it found it.
func (h *jobHarness) finish() {
	h.tbl.stop(false)
	if h.db != nil {
		h.db.Close()
	}
}

// fail stops the sequence, naming the op that broke it. (No
// tb.Helper in the per-op path: it costs more than the table does.)
func (h *jobHarness) fail(format string, args ...any) {
	h.tb.Fatalf("op %d (%d,%d): %s", h.op[0]%numJobOps, h.op[1], h.op[2], fmt.Sprintf(format, args...))
}

func (h *jobHarness) expect(what string, got, want any) {
	if !reflect.DeepEqual(got, want) {
		h.fail("%s: table %+v, model %+v", what, got, want)
	}
}

// pick returns held job b of worker w, or — when it holds none — job b
// at an attempt drawn from b.
func (h *jobHarness) pick(w int, b byte) (string, int) {
	if ids := sortedKeys(h.held[w]); len(ids) > 0 {
		id := ids[int(b)%len(ids)]
		return id, h.held[w][id]
	}
	return jobID(b), int(b>>4) % 4
}

func jobID(b byte) string { return fmt.Sprintf("j%d", int(b)%modelJobs) }

func (h *jobHarness) settled(sts ...settlement) {
	for _, st := range sts {
		if st.retry {
			h.timers = append(h.timers, st.job.ID)
		}
	}
}

func (h *jobHarness) handOut(id string, attempt int, dispatched bool) {
	if dispatched && attempt <= h.issued[id] {
		h.fail("dispatch of %s issued attempt %d again", id, attempt)
	}
	h.issued[id] = max(h.issued[id], attempt)
}

// step applies one op to the table and the model and compares them.
func (h *jobHarness) step(op, a, b byte) {
	h.op = [3]byte{op, a, b}
	w := int(a) % modelWorkers
	s := h.cur[w]
	switch op % numJobOps {
	case opSubmit:
		j := Job{ID: jobID(a), Kind: "k", Payload: json.RawMessage(fmt.Sprintf(`{"n":%d}`, b))}
		replay, queued := h.tbl.submit(j)
		mreplay, mqueued := h.m.submit(j)
		h.expect("submit", []any{replay, queued}, []any{mreplay, mqueued})
	case opDispatch:
		j, _, ok := h.tbl.next()
		id, attempt, mok := h.m.lease(s, h.now)
		if h.expect("next", ok, mok); !ok {
			break
		}
		got := h.tbl.lease(s, h.now)
		h.expect("lease", []any{j.ID, got}, []any{id, attempt})
		if b&1 != 0 {
			h.tbl.retract(id)
			h.m.retract(id)
			break
		}
		h.handOut(id, attempt, true)
		h.held[w][id] = attempt
	case opResultOK, opResultRetry, opResultFail, opStale:
		id, attempt := h.pick(w, b)
		res := JobResult{ID: id}
		switch op % numJobOps {
		case opResultOK:
			res.Output = json.RawMessage(fmt.Sprintf(`{"w":%d}`, w))
		case opResultRetry:
			res.Err = "transient failure"
		case opResultFail:
			res.Err = "bad config"
		case opStale:
			id, attempt = jobID(b), int(b>>3)%4
			res = JobResult{ID: id, Err: "transient failure"}
		}
		st, ok := h.tbl.finish(s, res, attempt)
		mst, mok := h.m.finish(s, res, attempt)
		h.expect("result", []any{st, ok}, []any{mst, mok})
		h.settled(st)
		if op%numJobOps != opStale {
			delete(h.held[w], id) // the broker acks every result
		}
	case opExpire:
		if h.m.ttl > 0 {
			h.now = h.now.Add(time.Duration(int(a)%4+1) * h.m.ttl / 4)
		}
		sts := h.tbl.expire(h.now)
		h.expect("expire", sts, h.m.expire(h.now))
		h.settled(sts...)
	case opDrop:
		h.expect("drop", h.tbl.drop(s), h.m.drop(s))
		h.reconnect(w)
	case opResume:
		id, attempt := h.pick(w, b)
		ok := h.tbl.adopt(s, id, attempt, h.now)
		h.expect("resume", ok, h.m.adopt(s, id, attempt, h.now))
		if ok {
			attempt = h.tbl.jobs[id].attempt
			h.handOut(id, attempt, false)
			h.held[w][id] = attempt
		} else {
			delete(h.held[w], id) // told to abandon it
		}
	case opFire:
		if len(h.timers) == 0 {
			break
		}
		i := int(a) % len(h.timers)
		id := h.timers[i]
		h.timers = slices.Delete(h.timers, i, i+1)
		h.expect("readmit", h.tbl.readmit(id), h.m.readmit(id))
	case opKill:
		h.tbl.stop(false)
		h.open()
	case opClose:
		h.tbl.stop(true)
		h.m.close()
		h.expect("close", viewTable(h.tbl), h.m.view())
		h.open()
	}
	if err := tableInvariants(h.tbl); err != nil {
		h.fail("%v", err)
	}
	h.expect("state", viewTable(h.tbl), h.m.view())
}

// runJobOps decodes data into a configuration and an op sequence and
// runs it.
func runJobOps(tb testing.TB, data []byte) {
	tb.Helper()
	if len(data) == 0 {
		return
	}
	h := newJobHarness(tb, data[0])
	defer h.finish()
	for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
		h.step(ops[0], ops[1], ops[2])
	}
}

// opWeights skews generated sequences toward the common moves, so a
// crash or a close comes every few dozen ops rather than every dozen.
var opWeights = [numJobOps]int{
	opSubmit: 8, opDispatch: 8, opResultOK: 6, opResultRetry: 4, opResultFail: 2,
	opStale: 2, opExpire: 2, opDrop: 2, opResume: 4, opFire: 4, opKill: 1, opClose: 1,
}

func genJobOps(rng *rand.Rand, ops int) []byte {
	total := 0
	for _, w := range opWeights {
		total += w
	}
	data := []byte{byte(rng.Intn(256))}
	for range ops {
		r := rng.Intn(total)
		op := 0
		for ; r >= opWeights[op]; op++ {
			r -= opWeights[op]
		}
		data = append(data, byte(op), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// TestJobTableMatchesModel drives the job table and the reference
// model through seeded random op sequences: submits and resubmits,
// dispatches (some whose frame is lost), results that succeed, fail
// retryably or fail for good, stale results, lease expiry, lost
// sessions, resumes, backoff timers, and Kill or Close followed by a
// new table over the same store.
func TestJobTableMatchesModel(t *testing.T) {
	const sequences, ops = 2000, 100
	for seed := range int64(sequences) {
		data := genJobOps(rand.New(rand.NewSource(seed)), ops)
		t.Run("", func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("seed %d: ops %x", seed, data)
				}
			}()
			runJobOps(t, data)
		})
		if t.Failed() {
			return
		}
	}
}

// FuzzJobTable checks the table against the model on arbitrary op
// sequences. The committed seeds replay three lifecycle bugs: a job
// submitted twice before any worker came queued twice and hung; a
// resume of the attempt a crash hid was refused; and a result from an
// attempt whose lease expired must not settle the retry that replaced
// it.
func FuzzJobTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1+3*400 {
			data = data[:1+3*400]
		}
		runJobOps(t, data)
	})
}
