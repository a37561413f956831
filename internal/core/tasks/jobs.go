package tasks

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"gem5art/internal/database"
)

// QueueCollection names the collection a durable broker queue keeps its
// jobs in — the collection a shard fleet's journal shipper replicates.
const QueueCollection = "broker_queue"

// session names one connection of a worker: the ID its hello announced
// and a serial the broker assigns, so a reconnect is a new session of
// the same worker. The zero session is no session.
type session struct {
	worker string
	serial uint64
}

// jobState is where a job is in its life.
type jobState int

const (
	jobQueued  jobState = iota + 1 // waiting for a session
	jobLeased                      // an attempt runs on a session
	jobWaiting                     // a retry waits out its backoff
	jobDone                        // its result is recorded
)

// entry is everything the table knows about one job.
type entry struct {
	job      Job
	state    jobState
	started  int           // executions started: the retry budget spent
	elem     *list.Element // its place in the queue, while queued
	holder   session       // while leased
	attempt  int           // while leased: the execution it represents
	deadline time.Time     // while leased; zero = no lease deadline
	avoid    session       // the session its last attempt failed on
	res      JobResult     // once done
}

// settlement is what settle decided for one attempt: retry the job
// after backoff, or deliver res, which is now the job's recorded result.
type settlement struct {
	job     Job
	res     JobResult
	retry   bool
	backoff time.Duration
}

// jobTable is a broker's per-job state and the only code that changes
// it: one entry per job, whose state says where the job is, and its
// methods are the moves between states — submit, lease (and retract),
// adopt, finish and expire (both through settle), readmit, drop and
// stop. The queue and the lease index hold only entries in their state.
//
// The durable queue, when there is one, holds a document per job with
// its payload, state (pending or done), execution count and, once done,
// its result. Every move but lease and adopt writes it, so a crash
// hides at most one attempt per job: the one its dispatch started.
//
// The table takes no lock, starts no goroutine and never reads the
// clock: the broker serializes calls under its mutex and passes the
// time in.
type jobTable struct {
	ttl   time.Duration // lease length; 0 = no deadline
	retry RetryPolicy
	col   database.Collection // the durable queue; nil keeps it in memory

	jobs   map[string]*entry
	order  *list.List        // queued entries, oldest first
	leases map[string]*entry // leased entries
	load   map[session]int   // leases per session
	done   int               // entries in state jobDone
}

// newJobTable builds a broker's table, recovering a durable queue: done
// jobs keep their results, and every other job is queued again, in
// submission order, with its execution count.
func newJobTable(col database.Collection, ttl time.Duration, retry RetryPolicy) *jobTable {
	t := &jobTable{ttl: ttl, retry: retry, col: col, jobs: make(map[string]*entry),
		order: list.New(), leases: make(map[string]*entry), load: make(map[session]int)}
	if col == nil {
		return t
	}
	col.CreateIndex("state") // Broker.State counts by state
	for _, e := range loadQueue(col) {
		t.jobs[e.job.ID] = e
		if e.state == jobDone {
			t.done++
		} else {
			t.enqueue(e)
		}
	}
	return t
}

// Unfinished returns the jobs a broker opened over db recovers
// unfinished — every job its durable queue holds that is not done.
func Unfinished(db database.Store) (jobs []Job) {
	for _, e := range loadQueue(db.Collection(QueueCollection)) {
		if e.state != jobDone {
			jobs = append(jobs, e.job)
		}
	}
	return jobs
}

// loadQueue decodes a durable queue into one entry per job: done ones
// with their results, the rest in no state yet.
func loadQueue(col database.Collection) []*entry {
	var es []*entry
	for _, d := range col.Find(nil) {
		str := func(k string) string { s, _ := d[k].(string); return s }
		if id := str("_id"); id != "" {
			e := &entry{job: Job{ID: id, Kind: str("kind"), Payload: rawJSON(str("payload"))}, started: docInt(d["executions"])}
			if str("state") == "done" {
				e.state, e.res = jobDone, JobResult{ID: id, Err: str("err"), Output: rawJSON(str("output"))}
			}
			es = append(es, e)
		}
	}
	return es
}

// submit takes in a job: a done one replays its recorded result, one
// queued, leased or waiting is left as it is, and a new one is made
// durable and queued.
func (t *jobTable) submit(j Job) (replay []settlement, queued bool) {
	if e := t.jobs[j.ID]; e != nil {
		if e.state == jobDone {
			replay = []settlement{{job: j, res: e.res}}
		}
		return replay, false
	}
	e := &entry{job: j}
	t.jobs[j.ID] = e
	t.requeue(e)
	return nil, true
}

// next reports the job at the head of the queue and the session it
// last failed on, which the caller prefers not to lease it to.
func (t *jobTable) next() (j Job, avoid session, ok bool) {
	if front := t.order.Front(); front != nil {
		e := front.Value.(*entry)
		return e.job, e.avoid, true
	}
	return Job{}, session{}, false
}

// lease hands the head of the queue to s as the job's next attempt and
// returns the attempt number. The queue must not be empty.
func (t *jobTable) lease(s session, now time.Time) int {
	e := t.order.Front().Value.(*entry)
	t.dequeue(e)
	e.started++
	t.hold(e, s, now)
	return e.started
}

// retract undoes the lease of a job whose task frame never reached the
// worker: the attempt did not start, and the job is queued again.
func (t *jobTable) retract(id string) {
	e := t.unhold(id)
	e.started--
	t.requeue(e)
}

// adopt answers a resume frame from session s: it reports whether the
// job is s's to finish. A job leased to s already is; a queued one is
// taken back when attempt is its latest or the one a crash hid.
func (t *jobTable) adopt(s session, id string, attempt int, now time.Time) bool {
	e := t.jobs[id]
	if e != nil && e.state == jobLeased {
		return e.holder == s
	}
	if !t.take(e, attempt) {
		return false
	}
	t.hold(e, s, now)
	return true
}

// finish applies a result frame from session s. It matches the job's
// lease when a session of the same worker holds it at this attempt (0
// matches any), or — a result resent after the session was lost — the
// queued job the attempt adopts. Anything else is stale or a
// duplicate, and ok is false.
func (t *jobTable) finish(s session, res JobResult, attempt int) (settlement, bool) {
	e := t.jobs[res.ID]
	if e != nil && e.state == jobLeased {
		if e.holder.worker != s.worker || (attempt != 0 && attempt != e.attempt) {
			return settlement{}, false
		}
		t.unhold(res.ID)
	} else if !t.take(e, attempt) {
		return settlement{}, false
	}
	return t.settle(e, s, res), true
}

// expire settles every lease past its deadline as a failed execution.
func (t *jobTable) expire(now time.Time) []settlement {
	var sts []settlement
	for _, id := range t.leased(func(e *entry) bool { return !e.deadline.IsZero() && e.deadline.Before(now) }) {
		e := t.unhold(id)
		msg := fmt.Sprintf("lease expired after %d attempts", e.started)
		sts = append(sts, t.settle(e, e.holder, JobResult{ID: id, Err: msg}))
	}
	return sts
}

// settle is the one exit from an attempt. A retryable failure with
// budget left waits out its backoff — durable first, so a crash in the
// gap cannot lose it — and is then retried, preferring a session other
// than from; anything else is recorded as the job's result.
func (t *jobTable) settle(e *entry, from session, res JobResult) settlement {
	rp := t.retry
	if rp.Enabled() && e.started < rp.MaxAttempts && rp.RetryableMessage(res.Err) {
		e.state, e.avoid = jobWaiting, from
		t.savePending(e)
		return settlement{job: e.job, retry: true, backoff: rp.Backoff(e.started)}
	}
	e.state, e.avoid, e.res = jobDone, session{}, res
	t.done++
	t.save(e, database.Doc{"state": "done", "err": res.Err, "output": string(res.Output)})
	return settlement{job: e.job, res: res}
}

// readmit queues a job whose retry backoff has elapsed. It reports
// false when the job is no longer waiting.
func (t *jobTable) readmit(id string) bool {
	e := t.jobs[id]
	if e == nil || e.state != jobWaiting {
		return false
	}
	t.enqueue(e)
	return true
}

// drop queues again, in job ID order, every job session s leases: the
// session was lost, not the attempt. It reports whether there was any.
func (t *jobTable) drop(s session) bool {
	ids := t.leased(func(e *entry) bool { return e.holder == s })
	for _, id := range ids {
		t.requeue(t.unhold(id))
	}
	return len(ids) > 0
}

// stop keeps only the done jobs. Graceful (Close) parks the leased ones
// as pending in the durable queue, or without one records every
// unfinished job failed ("broker closed"); otherwise (Kill) nothing is
// written, as in a crash.
func (t *jobTable) stop(graceful bool) {
	for id, e := range t.jobs {
		switch {
		case e.state == jobDone:
			continue
		case graceful && t.col == nil:
			e.state, e.res = jobDone, JobResult{ID: id, Err: "broker closed"}
			t.done++
			continue
		case graceful && e.state == jobLeased:
			t.savePending(e)
		}
		delete(t.jobs, id)
	}
	brokerQueueDepth.Add(-float64(t.order.Len()))
	t.order.Init()
	clear(t.leases)
	clear(t.load)
}

// result returns a job's recorded result.
func (t *jobTable) result(id string) (JobResult, bool) {
	if e := t.jobs[id]; e != nil && e.state == jobDone {
		return e.res, true
	}
	return JobResult{}, false
}

// held reports how many jobs session s leases.
func (t *jobTable) held(s session) int { return t.load[s] }

// executions reports how many attempts a job has started: 0 for a job
// the table does not hold, which after stop is every unfinished one.
func (t *jobTable) executions(id string) int {
	if e := t.jobs[id]; e != nil {
		return e.started
	}
	return 0
}

// state fills in st's job fields: the queue depth, the recorded
// results and every lease, sorted by job ID.
func (t *jobTable) state(st *BrokerState) {
	st.Pending, st.Results, st.Durable = t.order.Len(), t.done, t.col != nil
	for _, id := range t.leased(func(*entry) bool { return true }) {
		e := t.leases[id]
		st.InFlight = append(st.InFlight, AssignmentState{
			JobID:         id,
			Kind:          e.job.Kind,
			Worker:        e.holder.worker,
			LeaseDeadline: e.deadline,
			Executions:    e.attempt,
		})
	}
}

// durableState fills in st's durable queue counts. It reads only the
// store, so the caller need not hold the broker's mutex.
func (t *jobTable) durableState(st *BrokerState) {
	if t.col != nil {
		st.DurableDone = t.col.Count(database.Doc{"state": "done"})
		st.DurablePending = t.col.Count(nil) - st.DurableDone
	}
}

// take dequeues e for a worker that holds it at attempt (0 matches
// any) if that is the job's latest — the last started, or the next,
// which a crash hid — and makes it the latest: no attempt number is
// issued twice, and a held job has started at least once.
func (t *jobTable) take(e *entry, attempt int) bool {
	if e == nil || e.state != jobQueued || (attempt != 0 && attempt != e.started && attempt != e.started+1) {
		return false
	}
	e.started = max(e.started, attempt, 1)
	t.dequeue(e)
	return true
}

// leased returns the IDs of the leased jobs match accepts, sorted.
func (t *jobTable) leased(match func(*entry) bool) []string {
	var ids []string
	for id, e := range t.leases {
		if match(e) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// hold leases e to s at the job's latest attempt.
func (t *jobTable) hold(e *entry, s session, now time.Time) {
	e.state, e.holder, e.attempt, e.deadline = jobLeased, s, e.started, time.Time{}
	if t.ttl > 0 {
		e.deadline = now.Add(t.ttl)
	}
	t.leases[e.job.ID] = e
	t.load[s]++
}

// unhold ends id's lease and returns its entry.
func (t *jobTable) unhold(id string) *entry {
	e := t.leases[id]
	delete(t.leases, id)
	if t.load[e.holder]--; t.load[e.holder] == 0 {
		delete(t.load, e.holder)
	}
	return e
}

// requeue makes e pending, durably, at the back of the queue.
func (t *jobTable) requeue(e *entry) {
	t.savePending(e)
	t.enqueue(e)
}

func (t *jobTable) enqueue(e *entry) {
	e.state, e.elem = jobQueued, t.order.PushBack(e)
	brokerQueueDepth.Inc()
}

func (t *jobTable) dequeue(e *entry) {
	t.order.Remove(e.elem)
	e.elem = nil
	brokerQueueDepth.Dec()
}

func (t *jobTable) savePending(e *entry) {
	t.save(e, database.Doc{"kind": e.job.Kind, "payload": string(e.job.Payload), "state": "pending"})
}

// save upserts e's durable document with the fields in set and its
// execution count. Without a durable queue it does nothing.
func (t *jobTable) save(e *entry, set database.Doc) {
	if t.col == nil {
		return
	}
	set["executions"] = e.started
	if ok, err := t.col.UpdateOne(database.Doc{"_id": e.job.ID}, set); err == nil && !ok {
		set["_id"] = e.job.ID
		_, _ = t.col.InsertOne(set)
	}
}

// rawJSON turns a stored payload or output back into JSON.
func rawJSON(s string) json.RawMessage {
	if s == "" {
		return nil
	}
	return json.RawMessage(s)
}

// docInt coerces a stored numeric field, which a JSON round-trip may
// have widened to float64.
func docInt(v any) int {
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	case float64:
		return int(n)
	}
	return 0
}
