package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/experiments"
	"gem5art/internal/simcache"
)

// Probes are small fixed experiments on one layer, run after a traced
// pass against the state the workload left behind. They give the
// per-layer unit costs (µs/job, ns/key, µs/commit) that the workload's
// own spans cannot separate from the work around them.

// reportDatabase turns telemetry deltas over the traced pass into the
// database layer's per-run figures.
func reportDatabase(p *pass, before, after map[string]float64, journalBytes, diskBytes int64) {
	if p.runs == 0 {
		return
	}
	runs := float64(p.runs)
	const ops = "gem5art_db_op_duration_seconds"
	p.layer["database.op_ms_per_run"] = counterDelta(before, after, ops, "_sum") * 1e3 / runs
	p.layer["database.ops_per_run"] = counterDelta(before, after, ops, "_count") / runs
	p.layer["database.journal_bytes_per_run"] = float64(journalBytes) / runs
	p.layer["database.disk_bytes_per_run"] = float64(diskBytes) / runs
	p.layer["database.full_scans_per_run"] = counterDelta(before, after, "gem5art_db_full_scans_total", "") / runs
	p.layer["database.index_hits_per_run"] = counterDelta(before, after, `gem5art_db_index_lookups_total{result="hit"}`, "") / runs
}

func noopJob(json.RawMessage) (any, error) { return nil, nil }

// dispatchJobs pushes n no-op jobs through a Broker and one TCP Worker
// and returns the wall time per job. db, when set, makes the queue
// durable.
func dispatchJobs(n, capacity int, db database.Store) (time.Duration, error) {
	b, err := tasks.NewBrokerWithOptions("127.0.0.1:0", tasks.BrokerOptions{DB: db})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	w, err := tasks.NewWorker(b.Addr(), capacity, map[string]tasks.JobHandler{"noop": noopJob})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	start := time.Now()
	for i := 0; i < n; i++ {
		b.Submit(tasks.Job{ID: fmt.Sprintf("probe-%d", i), Kind: "noop", Payload: json.RawMessage(`{}`)})
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case res := <-b.Results():
			if res.Err != "" {
				return 0, fmt.Errorf("dispatch probe: job %s: %s", res.ID, res.Err)
			}
		case <-deadline:
			return 0, fmt.Errorf("dispatch probe: %d of %d results after 60s", i, n)
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// probeDispatch measures Broker+Worker dispatch with the queue in
// memory and on disk (default fsync-on-commit policy).
func probeDispatch(p *pass, c *config) {
	// Job counts stay below the broker's 1024-slot result channel, so
	// submitting everything before reading any result cannot stall.
	if d, err := dispatchJobs(1000, c.nproc, nil); err != nil {
		p.fail(err)
	} else {
		p.layer["tasks.dispatch_us_per_job"] = float64(d) / float64(time.Microsecond)
	}
	dir, err := c.tempDir("probe-queue-")
	if err != nil {
		p.fail(err)
		return
	}
	defer os.RemoveAll(dir)
	db, err := database.Open(dir)
	if err != nil {
		p.fail(err)
		return
	}
	defer db.Close()
	if d, err := dispatchJobs(500, c.nproc, db); err != nil {
		p.fail(err)
	} else {
		p.layer["tasks.dispatch_durable_us_per_job"] = float64(d) / float64(time.Microsecond)
	}
}

// probePool measures tasks.Pool's per-task cost on no-op tasks.
func probePool(p *pass, c *config) {
	const n = 20000
	pool := tasks.NewPool(c.nproc)
	defer pool.Close()
	noop := func(context.Context) error { return nil }
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := pool.ApplyAsync(tasks.TaskFunc{Name: "probe", Fn: noop}); err != nil {
			p.fail(err)
			return
		}
	}
	if err := pool.WaitAll(context.Background()); err != nil {
		p.fail(err)
		return
	}
	p.layer["tasks.pool_us_per_job"] = float64(time.Since(start)) / float64(time.Microsecond) / n
}

// probeSimcache measures key derivation and both lookup tiers against
// the Env's populated cache.
func probeSimcache(p *pass, e *experiments.Env) {
	in := simcache.KeyInputs{
		Kind: "fs:configs/run_exit.py",
		Artifacts: []string{e.Gem5.Hash, e.Gem5Git.Hash, e.Scripts.Hash,
			e.Kernels["5.4.49"].Hash, e.BootDisk.Hash},
		Params: []string{"kernel=5.4.49", "cpu=O3CPU", "mem_sys=classic", "num_cpus=4", "boot_type=init"},
	}
	const keyReps = 20000
	start := time.Now()
	for i := 0; i < keyReps; i++ {
		if in.Key() == "" {
			p.fail(fmt.Errorf("simcache probe: empty key"))
			return
		}
	}
	p.layer["simcache.key_ns"] = float64(time.Since(start)) / keyReps

	// Keys the workload stored, capped below the memory tier's entry
	// bound so the timed loop never evicts.
	var keys []string
	for _, d := range e.DB().Collection(simcache.ResultCollection).Find(nil) {
		if k, ok := d["_id"].(string); ok && len(keys) < simcache.DefaultMaxEntries/2 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		p.fail(fmt.Errorf("simcache probe: no cached results"))
		return
	}
	timeLookups := func(c *simcache.Cache, reps int) (float64, bool) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, k := range keys {
				if _, ok := c.Lookup(k); !ok {
					return 0, false
				}
			}
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / float64(reps*len(keys)), true
	}
	// A fresh cache over the same store has an empty memory tier, so
	// its first lookup of each key is served by the persistent tier
	// (and promoted); the second round is all memory hits.
	fresh := simcache.New(e.DB(), simcache.Options{})
	us, ok := timeLookups(fresh, 1)
	if !ok {
		p.fail(fmt.Errorf("simcache probe: persistent lookup missed"))
		return
	}
	p.layer["simcache.lookup_persistent_us"] = us
	if us, ok = timeLookups(fresh, 20); !ok {
		p.fail(fmt.Errorf("simcache probe: memory lookup missed"))
		return
	}
	p.layer["simcache.lookup_hit_us"] = us
}

// probeStore measures the open store at the size the workload left it:
// a journaled commit, an indexed point read and a scanning point read
// on the runs collection. scanKey is a field of the run documents that
// no index covers.
func probeStore(p *pass, db database.Store, runsCollection, scanKey string) {
	probe := db.Collection("bench_probe")
	var commits []time.Duration
	for i := 0; i < 200; i++ {
		start := time.Now()
		_, err := probe.InsertOne(database.Doc{"i": i, "name": "commit-probe", "status": "done"})
		commits = append(commits, time.Since(start))
		if err != nil {
			p.fail(fmt.Errorf("store probe: %w", err))
			return
		}
	}
	p.layer["database.commit_us_p50"] = median(ms(commits)) * 1e3

	runs := db.Collection(runsCollection)
	docs := runs.Find(nil)
	if len(docs) == 0 {
		p.fail(fmt.Errorf("store probe: %s is empty", runsCollection))
		return
	}
	// The last document is the worst case for a scan and no different
	// from any other for the index.
	last := docs[len(docs)-1]
	timeFind := func(filter database.Doc, reps int) float64 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if runs.FindOne(filter) == nil {
				p.fail(fmt.Errorf("store probe: %v not found", filter))
				return 0
			}
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / float64(reps)
	}
	p.layer["database.find_indexed_us"] = timeFind(database.Doc{"_id": last["_id"]}, 2000)
	p.layer["database.find_scan_us"] = timeFind(database.Doc{scanKey: last[scanKey]}, 100)
}

// probeReopen times database.Open on a closed store: snapshot load
// plus journal replay.
func probeReopen(p *pass, dir string) {
	start := time.Now()
	db, err := database.Open(dir)
	d := time.Since(start)
	if err != nil {
		p.fail(fmt.Errorf("reopen probe: %w", err))
		return
	}
	_ = db.Close()
	p.layer["database.reopen_ms"] = float64(d) / float64(time.Millisecond)
}
