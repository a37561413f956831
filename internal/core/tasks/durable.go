package tasks

import (
	"encoding/json"

	"gem5art/internal/database"
)

// QueueCollection names the collection a durable broker queue keeps its
// jobs in — the collection a shard fleet's journal shipper replicates.
const QueueCollection = "broker_queue"

// durableQueue persists the broker's queue through the storage engine:
// one document per job, carrying its payload, lifecycle state (pending
// → done), execution count, and — once finished — its result. Because
// the engine journals every mutation, a broker crash at any point
// leaves a consistent queue for the next NewBrokerWithOptions to
// recover: done jobs keep their results (idempotent result acceptance
// across restarts), everything else rejoins the pending queue with its
// retry budget intact.
//
// A dispatch writes nothing. Every other transition does, so a crash
// hides at most one dispatch per job: its count is one behind the
// attempt the worker holds, which is why the broker adopts that one
// attempt when the worker resumes it or resends its result.
//
// All methods are nil-safe: a broker without a durable queue calls
// them on a nil receiver and they cost one comparison.
type durableQueue struct {
	col database.Collection
}

// savePending upserts the job as waiting for dispatch.
func (q *durableQueue) savePending(j Job, execs int) {
	if q == nil {
		return
	}
	q.upsert(j.ID, database.Doc{
		"kind":       j.Kind,
		"payload":    string(j.Payload),
		"state":      "pending",
		"executions": execs,
	})
}

// saveDone records the job's terminal result.
func (q *durableQueue) saveDone(res JobResult, execs int) {
	if q == nil {
		return
	}
	q.upsert(res.ID, database.Doc{
		"state":      "done",
		"executions": execs,
		"err":        res.Err,
		"output":     string(res.Output),
	})
}

func (q *durableQueue) upsert(id string, set database.Doc) {
	if ok, err := q.col.UpdateOne(database.Doc{"_id": id}, set); err == nil && !ok {
		d := database.Doc{"_id": id}
		for k, v := range set {
			d[k] = v
		}
		_, _ = q.col.InsertOne(d)
	}
}

// depth reports the unfinished and finished job counts in the store.
func (q *durableQueue) depth() (unfinished, done int) {
	if q == nil {
		return 0, 0
	}
	done = q.col.Count(database.Doc{"state": "done"})
	return q.col.Count(nil) - done, done
}

// recover loads the prior broker's state: unfinished jobs in insertion
// order with their execution counts, and the results of completed
// jobs. Any state but done requeues, so a store whose jobs were last
// written in flight by an older broker loads the same way.
func (q *durableQueue) recover() (pending []Job, execs map[string]int, results map[string]JobResult) {
	execs = make(map[string]int)
	results = make(map[string]JobResult)
	for _, d := range q.col.Find(nil) {
		id, _ := d["_id"].(string)
		if id == "" {
			continue
		}
		state, _ := d["state"].(string)
		execs[id] = docInt(d["executions"])
		switch state {
		case "done":
			res := JobResult{ID: id}
			res.Err, _ = d["err"].(string)
			if out, _ := d["output"].(string); out != "" {
				res.Output = json.RawMessage(out)
			}
			results[id] = res
		default: // unfinished — requeue
			j := Job{ID: id}
			j.Kind, _ = d["kind"].(string)
			if p, _ := d["payload"].(string); p != "" {
				j.Payload = json.RawMessage(p)
			}
			pending = append(pending, j)
		}
	}
	return pending, execs, results
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
