package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/database/storage"
)

// launchDoc reads a tenant's launch document straight from the store.
func launchDoc(db storage.Store, tenant, id string) storage.Doc {
	return Namespace(db, tenant).Collection("launches").FindOne(storage.Doc{"_id": id})
}

func okResult(id string) tasks.JobResult {
	return tasks.JobResult{ID: id, Output: json.RawMessage(`{"ok":true}`)}
}

// TestWaitReturnsAfterBrokerClose: over a single broker, Close must
// close Results so the pump — and Wait — finish, with results still in
// flight from a live worker.
func TestWaitReturnsAfterBrokerClose(t *testing.T) {
	cfg := testConfig(TenantConfig{ID: "alpha", Token: "tok-alpha"})
	db := database.MustOpen("")
	defer db.Close()
	b, err := tasks.NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := tasks.NewWorker(b.Addr(), 2, map[string]tasks.JobHandler{
		"boot": func(json.RawMessage) (any, error) { return map[string]any{"outcome": "ok"}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := New(cfg, nil, b, db, nil)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	id, resp := submitLaunch(t, srv, "tok-alpha", 8)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool {
		d := launchDoc(db, "alpha", id)
		return d != nil && d["done"] != 0
	}, "a first result applied")
	b.Close()
	waited := make(chan struct{})
	go func() { g.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(time.Second):
		t.Fatal("Wait still blocked 1s after Broker.Close: Results was not closed")
	}
}

// TestNewGatewayHealsLaunchAfterCrash: a gateway dies after committing
// a run "done" but before updating its launch document. A new gateway
// over the same store counts the launch from its runs the first time
// it touches it, so the orphaned run is not lost — and a result
// delivered twice is not counted twice.
func TestNewGatewayHealsLaunchAfterCrash(t *testing.T) {
	cfg := testConfig(TenantConfig{ID: "alpha", Token: "tok-alpha"})
	db := database.MustOpen("")
	defer db.Close()
	backend := newStubBackend()
	g1 := New(cfg, nil, backend, db, nil)
	srv := httptest.NewServer(g1.Handler())
	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 4 }, "4 jobs dispatched")
	srv.Close()
	backend.Close()
	g1.Wait()

	// The crash window: run committed, launch document not.
	jobs := backend.submitted
	runs := Namespace(db, "alpha").Collection("runs")
	if ok, err := runs.UpdateOne(storage.Doc{"job_id": jobs[0].ID}, storage.Doc{"status": "done"}); !ok || err != nil {
		t.Fatalf("commit orphan run: %v, %v", ok, err)
	}
	if d := launchDoc(db, "alpha", id); d["done"] != 0 {
		t.Fatalf("launch document already counts the orphan: %v", d)
	}

	backend2 := newStubBackend()
	g2 := New(cfg, nil, backend2, db, nil)
	backend2.res <- okResult(jobs[1].ID)
	backend2.res <- okResult(jobs[2].ID)
	backend2.res <- okResult(jobs[2].ID) // delivered twice
	backend2.res <- okResult(jobs[0].ID) // late copy of the orphan's result
	backend2.res <- okResult(jobs[3].ID)
	backend2.Close()
	g2.Wait()

	d := launchDoc(db, "alpha", id)
	if d["status"] != "finished" || d["done"] != 4 || d["failed"] != 0 {
		t.Fatalf("launch after recovery = %v, want finished with done 4, failed 0", d)
	}
}

// TestResultForCanceledRunLeavesItCanceled: a result that arrives for
// a run the tenant already canceled must not resurrect it.
func TestResultForCanceledRunLeavesItCanceled(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 1, MaxQueued: 8, Weight: 1},
	})
	g, backend, srv := testGateway(t, cfg)
	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 1 }, "1 job in flight")
	if resp := apiReq(t, "DELETE", srv.URL+"/api/launches/"+id, "tok-alpha", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	runs := Namespace(g.store, "alpha").Collection("runs")
	canceled := runs.Find(storage.Doc{"launch_id": id, "status": "canceled"})
	if len(canceled) != 3 {
		t.Fatalf("%d canceled runs, want 3", len(canceled))
	}
	stray := canceled[0]["job_id"].(string)
	backend.res <- okResult(stray)
	backend.completeAll() // the in-flight job; ordered behind the stray result
	waitFor(t, func() bool { return launchDoc(g.store, "alpha", id)["done"] == 1 }, "in-flight run recorded")

	if d := runs.FindOne(storage.Doc{"job_id": stray}); d["status"] != "canceled" || d["output"] != nil {
		t.Fatalf("canceled run after a late result = %v", d)
	}
	if d := launchDoc(g.store, "alpha", id); d["canceled"] != 3 || d["done"] != 1 || d["failed"] != 0 {
		t.Fatalf("launch = %v, want done 1, canceled 3", d)
	}
}

// TestAdmissionOverDurableBroker drives the gateway's admission through
// a real durable broker and a TCP worker: a tenant's in-flight jobs
// never exceed its cap, a resubmitted finished job is answered from the
// broker's record and frees exactly the one slot it took, and a parked
// job the closed broker refuses fails its run and gives its slot back.
func TestAdmissionOverDurableBroker(t *testing.T) {
	quota := func(n int) *Config {
		return testConfig(TenantConfig{ID: "alpha", Token: "tok-alpha",
			Quota: &Quota{MaxInFlight: n, MaxQueued: 16, Weight: 1}})
	}
	queue := database.MustOpen(t.TempDir())
	defer queue.Close()
	b, err := tasks.NewBrokerWithOptions("127.0.0.1:0", tasks.BrokerOptions{DB: queue})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The worker takes twice the tenant's cap, so only admission keeps
	// the handlers under it. While hold is set, handlers block on gate.
	var live, peak atomic.Int32
	var hold atomic.Bool
	gate := make(chan struct{})
	w, err := tasks.NewWorker(b.Addr(), 4, map[string]tasks.JobHandler{
		"boot": func(json.RawMessage) (any, error) {
			n := live.Add(1)
			defer live.Add(-1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			if hold.Load() {
				<-gate
			} else {
				time.Sleep(2 * time.Millisecond)
			}
			return map[string]any{"outcome": "ok"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Kill()
	defer close(gate)

	db := database.MustOpen("")
	defer db.Close()
	g := New(quota(2), nil, b, db, nil)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	// The cap holds with a worker that has room for more.
	first, resp := submitLaunch(t, srv, "tok-alpha", 8)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return launchDoc(db, "alpha", first)["status"] == "finished" }, "first launch finished")
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak in-flight handlers = %d, cap 2", p)
	}
	waitFor(t, func() bool { return g.ctrl.InFlight("alpha") == 0 }, "every slot released")

	// One job holds a slot while a finished job is submitted again: the
	// broker replays its recorded result without running it, and the
	// replay frees that job's slot and no other. A second replay, of a
	// submit the gateway made no reservation for (as for a job a durable
	// queue recovers after a restart), frees nothing.
	hold.Store(true)
	if _, resp := submitLaunch(t, srv, "tok-alpha", 1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("held launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return live.Load() == 1 }, "the held job running")
	done := tasks.Job{ID: jobPrefix("alpha", first) + "0", Kind: "boot"}
	if err := g.ctrl.Reserve("alpha", []tasks.Job{done}); err != nil {
		t.Fatal(err)
	}
	g.ctrl.Kick()
	waitFor(t, func() bool { return g.ctrl.InFlight("alpha") == 1 }, "the replay's slot freed")
	if err := b.Submit(done); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := g.ctrl.InFlight("alpha"); got != 1 {
		t.Fatalf("in-flight after the replay = %d, want 1 (the held job)", got)
	}
	if n := b.Executions(done.ID); n != 1 {
		t.Fatalf("finished job executed %d times, want 1", n)
	}
	if d := launchDoc(db, "alpha", first); d["done"] != 8 {
		t.Fatalf("first launch after the replay = %v, want done 8", d)
	}

	// A job parked behind the cap meets a closed broker: its run fails
	// through onDrop and its slot is freed, while the held job keeps its.
	last, resp := submitLaunch(t, srv, "tok-alpha", 2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("last launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return live.Load() == 2 }, "two held jobs running")
	b.Close()
	g.Wait()
	g.Reload(quota(3))
	g.ctrl.Kick()
	parked := Namespace(db, "alpha").Collection("runs").FindOne(storage.Doc{"job_id": jobPrefix("alpha", last) + "1"})
	if parked["status"] != "failed" || !strings.Contains(fmt.Sprint(parked["error"]), "broker closed") {
		t.Fatalf("parked run after the broker closed = %v, want failed: broker closed", parked)
	}
	if got := g.ctrl.InFlight("alpha"); got != 2 {
		t.Fatalf("in-flight after the refusal = %d, want 2 (the held jobs)", got)
	}
}
