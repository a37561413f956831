package launch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/database/storage"
	"gem5art/internal/faultinject"
	"gem5art/internal/statusd"
)

// Disk-fault chaos: the broker's durable queue lives on a store whose
// every durable syscall runs through a seeded DiskChaos filesystem.
// The invariant matches the network suite — every launch completes
// with zero lost, duplicated, or corrupt results — plus the disk
// contract: a failed journal append or fsync is never acknowledged as
// a successful commit; the store degrades to read-only instead and
// the operator-visible surfaces (Health, statusd /healthz) say why.

// dumpDiskChaosOnFailure is dumpChaosOnFailure plus a scrub pass: when
// the test failed, the store is scrubbed and the integrity report
// (corrupt blobs, torn journals, quarantined hashes) lands next to the
// chaos repro report in CHAOS_ARTIFACTS.
func dumpDiskChaosOnFailure(t *testing.T, seed int64, db *database.DB, storeDir string, snapshot func() map[string]any, sources ...faultinject.ReportSource) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if dir := faultinject.ArtifactsDir(); dir != "" && db != nil {
			if path, err := database.WriteScrubReport(dir, t.Name()+"-scrub", db.Scrub()); err == nil {
				t.Logf("chaos scrub report: %s", path)
			}
		}
	})
	dumpChaosOnFailure(t, seed, storeDir, snapshot, sources...)
}

// diskChaosBroker opens a broker whose durable queue sits on db.
func diskChaosBroker(t *testing.T, addr string, db database.Store) *tasks.Broker {
	t.Helper()
	b, err := tasks.NewBrokerWithOptions(addr, tasks.BrokerOptions{
		DB:            db,
		Lease:         2 * time.Second,
		CheckInterval: 10 * time.Millisecond,
		Retry:         tasks.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// diskChaosWorkers attaches n reconnecting workers counting executions.
func diskChaosWorkers(t *testing.T, addr, prefix string, n int, counts *execCounter) {
	t.Helper()
	handlers := map[string]tasks.JobHandler{
		"sim": func(p json.RawMessage) (any, error) {
			var in struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(p, &in)
			counts.inc(in.ID)
			time.Sleep(2 * time.Millisecond)
			return map[string]string{"id": in.ID}, nil
		},
	}
	for i := 0; i < n; i++ {
		w, err := tasks.NewWorkerWithOptions(addr, tasks.WorkerOptions{
			Capacity:        1,
			Handlers:        handlers,
			ID:              fmt.Sprintf("%s%d", prefix, i),
			Reconnect:       true,
			ReconnectPolicy: tasks.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Multiplier: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
}

// drainRecoveredLaunch waits for every job to hold a result on the
// restarted broker and asserts the launch invariant: no failures, the
// right output, and an execution count consistent with at-least-once
// dispatch plus duplicate suppression (1 or 2, never 0, never more).
func drainRecoveredLaunch(t *testing.T, b *tasks.Broker, jobs int, counts *execCounter) {
	t.Helper()
	chaosWait(t, 20*time.Second, func() bool {
		for i := 0; i < jobs; i++ {
			if _, ok := b.Result(chaosJobID(i)); !ok {
				return false
			}
		}
		return true
	}, "recovered launch to complete")
	for i := 0; i < jobs; i++ {
		id := chaosJobID(i)
		res, _ := b.Result(id)
		if res.Err != "" {
			t.Fatalf("job %s failed: %+v", id, res)
		}
		if string(res.Output) != fmt.Sprintf(`{"id":%q}`, id) {
			t.Fatalf("job %s output corrupt: %s", id, res.Output)
		}
		if n := counts.get(id); n < 1 || n > 2 {
			t.Fatalf("job %s executed %d times, want 1 or 2", id, n)
		}
	}
}

// TestChaosDiskDegradeMidLaunchThenRecover injects a one-shot journal
// write fault into the broker's durable queue in the middle of a
// launch. The store flips to read-only degraded mode — the failed
// append is refused with a typed error, never acknowledged — and
// statusd reports 503 with the degradation reason. The broker is then
// killed and restarted over a reopened (healthy) store on the same
// address; the launch completes with zero lost or duplicated results,
// and jobs recorded before the fault are not re-executed.
func TestChaosDiskDegradeMidLaunchThenRecover(t *testing.T) {
	const jobs = 20
	seed := faultinject.SeedFromEnv(7)
	t.Logf("chaos seed %d (set %s to replay)", seed, faultinject.SeedEnv)
	dir := t.TempDir()
	dc := faultinject.NewDiskChaos(seed, nil)
	store, err := database.OpenWith(dir, database.Options{SyncOnCommit: true, FS: dc})
	if err != nil {
		t.Fatal(err)
	}
	db := store.(*database.DB)
	t.Cleanup(func() { _ = db.Close() })
	dumpDiskChaosOnFailure(t, seed, db, dir, nil, dc)

	counts := newExecCounter()
	b1 := diskChaosBroker(t, "127.0.0.1:0", db)
	addr := b1.Addr()
	diskChaosWorkers(t, addr, "disk-w", 2, counts)
	for i := 0; i < jobs; i++ {
		id := chaosJobID(i)
		b1.Submit(tasks.Job{ID: id, Kind: "sim",
			Payload: json.RawMessage(fmt.Sprintf(`{"id":%q}`, id))})
	}

	// Let part of the launch land durably, then arm a one-shot EIO on
	// the queue's journal: the next queue mutation fails its append and
	// the store degrades.
	seen := map[string]tasks.JobResult{}
	collectOnce(t, b1.Results(), seen, 5, 10*time.Second)
	preFault := make([]string, 0, len(seen))
	for id := range seen {
		preFault = append(preFault, id)
	}
	dc.Arm(faultinject.DiskRule{Kind: faultinject.DiskEIO, Op: faultinject.OpWrite, PathContains: "broker_queue.wal", Count: 1})
	chaosWait(t, 10*time.Second, func() bool { return db.Health() != nil }, "store to degrade")
	if got := dc.Fired(faultinject.DiskEIO); got != 1 {
		t.Fatalf("EIO fired %d times, want 1", got)
	}

	// The failed commit was never acknowledged: the store now refuses
	// every mutation with the typed degradation error.
	var deg *storage.DegradedError
	if _, err := db.Collection("broker_queue").InsertOne(database.Doc{"probe": true}); !errors.As(err, &deg) {
		t.Fatalf("degraded store acknowledged a commit: err=%v", err)
	}

	// statusd surfaces the degradation as 503 with the reason.
	ts := httptest.NewServer(statusd.New(db).Handler())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status          string `json:"status"`
		StorageDegraded string `json:"storage_degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.StorageDegraded != deg.Reason {
		t.Fatalf("healthz on degraded store = %d %+v, want 503 with reason %q",
			resp.StatusCode, health, deg.Reason)
	}

	// Crash the degraded broker, reopen the store healthy (the fault is
	// a one-shot; a real deployment swaps the disk), restart in place.
	b1.Kill()
	_ = db.Close()
	db2 := database.MustOpen(dir)
	t.Cleanup(func() { _ = db2.Close() })
	b2 := diskChaosBroker(t, addr, db2)
	t.Cleanup(func() { b2.Close() })

	drainRecoveredLaunch(t, b2, jobs, counts)
	// Jobs recorded durably before the fault must not have re-executed.
	for _, id := range preFault {
		if n := counts.get(id); n != 1 {
			t.Fatalf("pre-fault job %s re-executed: %d runs", id, n)
		}
	}
}

// TestChaosDiskEveryFaultClass drives one launch per disk fault class
// through fault → broker crash → restart over the reopened store. The
// degrading classes (EIO, ENOSPC, short write, fsync failure, torn
// rename) flip the store read-only at the faulted commit; the torn
// write is silent at write time and is detected by journal CRC framing
// on replay. In every class the launch completes with zero lost,
// duplicated, or corrupt results.
func TestChaosDiskEveryFaultClass(t *testing.T) {
	const jobs = 12
	baseSeed := faultinject.SeedFromEnv(11)
	cases := []struct {
		name    string
		rule    faultinject.DiskRule
		flush   bool // torn rename only fires on a snapshot publish
		degrade bool // class surfaces as a degraded store before the kill
	}{
		// After: 14 skips the 12 submit-time savePending appends so the
		// fault lands on a mid-execution record.
		{"eio", faultinject.DiskRule{Kind: faultinject.DiskEIO, Op: faultinject.OpWrite, PathContains: ".wal", After: 14, Count: 1}, false, true},
		{"enospc", faultinject.DiskRule{Kind: faultinject.DiskENOSPC, PathContains: ".wal", After: 14, Count: 1}, false, true},
		{"short-write", faultinject.DiskRule{Kind: faultinject.DiskShortWrite, PathContains: ".wal", After: 14, Count: 1}, false, true},
		{"fsync-fail", faultinject.DiskRule{Kind: faultinject.DiskFsyncFail, PathContains: ".wal", After: 14, Count: 1}, false, true},
		{"torn-rename", faultinject.DiskRule{Kind: faultinject.DiskTornRename, PathContains: ".jsonl", Count: 1}, true, true},
		{"torn-write", faultinject.DiskRule{Kind: faultinject.DiskTornWrite, PathContains: ".wal", After: 14, Count: 1}, false, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := baseSeed + int64(i)
			t.Logf("chaos seed %d (set %s to replay)", seed, faultinject.SeedEnv)
			dir := t.TempDir()
			dc := faultinject.NewDiskChaos(seed, nil, tc.rule)
			store, err := database.OpenWith(dir, database.Options{SyncOnCommit: true, FS: dc})
			if err != nil {
				t.Fatal(err)
			}
			db := store.(*database.DB)
			t.Cleanup(func() { _ = db.Close() })
			dumpDiskChaosOnFailure(t, seed, db, dir, nil, dc)

			counts := newExecCounter()
			b1 := diskChaosBroker(t, "127.0.0.1:0", db)
			addr := b1.Addr()
			// Submit everything before any worker attaches: the first 12
			// journal appends are the savePending records, so After: 14
			// deterministically tears or fails an execution-time record.
			for j := 0; j < jobs; j++ {
				id := chaosJobID(j)
				b1.Submit(tasks.Job{ID: id, Kind: "sim",
					Payload: json.RawMessage(fmt.Sprintf(`{"id":%q}`, id))})
			}
			diskChaosWorkers(t, addr, tc.name+"-w", 2, counts)

			if tc.flush {
				// The torn rename needs a snapshot publish: compact once
				// some execution records exist.
				chaosWait(t, 10*time.Second, func() bool {
					return counts.get(chaosJobID(0)) > 0 || counts.get(chaosJobID(1)) > 0
				}, "first execution before flush")
				if err := db.Flush(); err == nil {
					t.Fatal("Flush succeeded despite the armed torn rename")
				}
			}
			if tc.degrade {
				chaosWait(t, 10*time.Second, func() bool { return db.Health() != nil }, "store to degrade")
				var deg *storage.DegradedError
				if err := db.Health(); !errors.As(err, &deg) {
					t.Fatalf("degraded health is untyped: %v", err)
				}
			} else {
				chaosWait(t, 10*time.Second, func() bool { return dc.Fired(tc.rule.Kind) >= 1 }, "torn write to fire")
			}

			// Crash: kill the broker and abandon the db handle without a
			// graceful close (a close could fold the torn tail into a
			// snapshot and hide exactly the artifact replay must detect).
			b1.Kill()
			db2 := database.MustOpen(dir)
			t.Cleanup(func() { _ = db2.Close() })
			b2 := diskChaosBroker(t, addr, db2)
			t.Cleanup(func() { b2.Close() })

			drainRecoveredLaunch(t, b2, jobs, counts)
			if len(dc.Events()) == 0 {
				t.Fatal("fault class never fired")
			}
		})
	}
}
