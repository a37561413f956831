package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	ctrl := NewController(cfg)
	b, err := tasks.NewBrokerWithOptions("127.0.0.1:0", tasks.BrokerOptions{Admission: ctrl})
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
	g := New(cfg, ctrl, b, db, nil)
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
	ctrl := NewController(cfg)
	backend := newStubBackend(ctrl)
	g1 := New(cfg, ctrl, backend, db, nil)
	srv := httptest.NewServer(g1.Handler())
	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 4 }, "4 jobs dispatched")
	srv.Close()
	close(backend.res)
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

	backend2 := newStubBackend(nil)
	g2 := New(cfg, NewController(cfg), backend2, db, nil)
	backend2.res <- okResult(jobs[1].ID)
	backend2.res <- okResult(jobs[2].ID)
	backend2.res <- okResult(jobs[2].ID) // delivered twice
	backend2.res <- okResult(jobs[0].ID) // late copy of the orphan's result
	backend2.res <- okResult(jobs[3].ID)
	close(backend2.res)
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
