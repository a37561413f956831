package statusd

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/simcache"
	"gem5art/internal/telemetry"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	db := database.MustOpen(t.TempDir())
	t.Cleanup(func() { _ = db.Close() })
	s := New(db)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	var body map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("status = %v, want ok", body["status"])
	}
	if body["database"] != true {
		t.Errorf("database = %v, want true", body["database"])
	}
	if body["broker"] != false {
		t.Errorf("broker = %v, want false", body["broker"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()
	reg := telemetry.NewRegistry()
	reg.Counter("gem5art_test_hits_total", "hits").Add(3)
	s := &Server{Registry: reg, Bus: telemetry.NewEventBus(16), DB: db, Start: time.Now()}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("content type = %q", resp.Header.Get("Content-Type"))
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "gem5art_test_hits_total 3") {
		t.Errorf("metrics output missing counter:\n%s", raw)
	}
}

func seedRuns(t *testing.T, s *Server) {
	t.Helper()
	col := s.DB.Collection("runs")
	docs := []database.Doc{
		{"_id": "r1", "name": "boot-1", "status": "done", "outcome": "success",
			"attempts": []any{map[string]any{"index": 1, "status": "done"}}, "wall_seconds": 2.5},
		{"_id": "r2", "name": "boot-2", "status": "failed", "outcome": "kernel-panic",
			"attempts": []any{
				map[string]any{"index": 1, "status": "failed"},
				map[string]any{"index": 2, "status": "failed"},
			}},
		{"_id": "r3", "name": "boot-3", "status": "queued"},
	}
	for _, d := range docs {
		if _, err := col.InsertOne(d); err != nil {
			t.Fatal(err)
		}
	}
}

func TestListRuns(t *testing.T) {
	s, ts := testServer(t)
	seedRuns(t, s)

	var body struct {
		Count int `json:"count"`
		Runs  []struct {
			ID       string `json:"id"`
			Status   string `json:"status"`
			Attempts int    `json:"attempts"`
		} `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/api/runs", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body.Count != 3 {
		t.Fatalf("count = %d, want 3", body.Count)
	}

	if getJSON(t, ts.URL+"/api/runs?status=failed", &body); body.Count != 1 || body.Runs[0].ID != "r2" {
		t.Errorf("status filter: got %+v", body)
	}
	if body.Runs[0].Attempts != 2 {
		t.Errorf("r2 attempts = %d, want 2", body.Runs[0].Attempts)
	}
	if getJSON(t, ts.URL+"/api/runs?outcome=success", &body); body.Count != 1 || body.Runs[0].ID != "r1" {
		t.Errorf("outcome filter: got %+v", body)
	}
	if getJSON(t, ts.URL+"/api/runs?limit=2", &body); body.Count != 2 {
		t.Errorf("limit: count = %d, want 2", body.Count)
	}
}

func TestGetRun(t *testing.T) {
	s, ts := testServer(t)
	seedRuns(t, s)

	var body map[string]any
	if code := getJSON(t, ts.URL+"/api/runs/r2", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	run, _ := body["run"].(map[string]any)
	if run["name"] != "boot-2" {
		t.Errorf("name = %v", run["name"])
	}
	atts, _ := run["attempts"].([]any)
	if len(atts) != 2 {
		t.Errorf("attempts = %d, want 2", len(atts))
	}

	if code := getJSON(t, ts.URL+"/api/runs/nope", &body); code != http.StatusNotFound {
		t.Errorf("missing run status = %d, want 404", code)
	}
}

func TestNoDatabase(t *testing.T) {
	s := &Server{Registry: telemetry.NewRegistry(), Bus: telemetry.NewEventBus(16), Start: time.Now()}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var body map[string]any
	if code := getJSON(t, ts.URL+"/api/runs", &body); code != http.StatusServiceUnavailable {
		t.Errorf("runs without db status = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/api/broker", &body); code != http.StatusServiceUnavailable {
		t.Errorf("broker without broker status = %d, want 503", code)
	}
}

func TestEventsSSE(t *testing.T) {
	db := database.MustOpen(t.TempDir())
	defer db.Close()
	bus := telemetry.NewEventBus(16)
	s := &Server{Registry: telemetry.NewRegistry(), Bus: bus, DB: db, Start: time.Now()}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bus.Publish("run", map[string]string{"id": "r1", "status": "queued"})

	resp, err := http.Get(ts.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Publish a live event after the stream is attached.
	go func() {
		time.Sleep(20 * time.Millisecond)
		bus.Publish("run", map[string]string{"id": "r1", "status": "running"})
	}()

	sc := bufio.NewScanner(resp.Body)
	deadline := time.AfterFunc(5*time.Second, func() { resp.Body.Close() })
	defer deadline.Stop()
	var datas []string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			datas = append(datas, strings.TrimPrefix(line, "data: "))
			if len(datas) == 2 {
				break
			}
		}
	}
	if len(datas) != 2 {
		t.Fatalf("got %d events, want 2: %v", len(datas), datas)
	}
	var ev telemetry.Event
	if err := json.Unmarshal([]byte(datas[0]), &ev); err != nil {
		t.Fatalf("bad event json %q: %v", datas[0], err)
	}
	if ev.Fields["status"] != "queued" {
		t.Errorf("replayed event status = %q, want queued", ev.Fields["status"])
	}
	if err := json.Unmarshal([]byte(datas[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Fields["status"] != "running" {
		t.Errorf("live event status = %q, want running", ev.Fields["status"])
	}
}

func TestListenAndServe(t *testing.T) {
	s, _ := testServer(t)
	addr, _, err := ListenAndServe("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if code := getJSON(t, "http://"+addr+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
}

func TestCacheStatsEndpoint(t *testing.T) {
	s, ts := testServer(t)

	// No cache attached: 503, not a panic.
	var body map[string]any
	if code := getJSON(t, ts.URL+"/api/cache", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("no-cache status = %d", code)
	}

	s.Cache = simcache.New(s.DB, simcache.Options{})
	s.Cache.Store("k1", database.Doc{"Outcome": "success"})
	if _, ok := s.Cache.Lookup("k1"); !ok {
		t.Fatal("seed lookup missed")
	}
	s.Cache.Lookup("absent")

	var st simcache.Stats
	if code := getJSON(t, ts.URL+"/api/cache", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.HitsPersistent != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Salt != simcache.SimVersionSalt {
		t.Fatalf("salt = %q", st.Salt)
	}
	// The cache has one tier: no memory-tier field is served.
	var served map[string]any
	getJSON(t, ts.URL+"/api/cache", &served)
	for _, k := range []string{"hits_memory", "memory_entries", "memory_bytes"} {
		if _, ok := served[k]; ok {
			t.Errorf("/api/cache serves %q: %v", k, served)
		}
	}
}

func TestCacheCheckpointEndpoint(t *testing.T) {
	s, ts := testServer(t)
	s.Cache = simcache.New(s.DB, simcache.Options{})
	class := simcache.BootClass{KernelHash: "k", DiskHash: "d", Cores: 1, Mem: "classic"}
	blob := []byte("G5CK pretend checkpoint payload")
	hash, _ := s.Cache.PutCheckpoint(class, "bootclass/test/cpt.1", blob)

	resp, err := http.Get(ts.URL + "/api/cache/checkpoints/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type = %q", ct)
	}
	got, _ := io.ReadAll(resp.Body)
	if string(got) != string(blob) {
		t.Fatalf("blob mismatch: %q", got)
	}

	var body map[string]any
	if code := getJSON(t, ts.URL+"/api/cache/checkpoints/ffffffffffffffffffffffffffffffff", &body); code != http.StatusNotFound {
		t.Fatalf("missing-hash status = %d", code)
	}
}

func TestBrokerEndpointExposesSessionsAndDurableQueue(t *testing.T) {
	s, ts := testServer(t)
	b, err := tasks.NewBrokerWithOptions("127.0.0.1:0", tasks.BrokerOptions{DB: s.DB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s.Broker = b

	release := make(chan struct{})
	w, err := tasks.NewWorkerWithOptions(b.Addr(), tasks.WorkerOptions{
		Capacity: 3,
		Handlers: map[string]tasks.JobHandler{
			"wait": func(json.RawMessage) (any, error) { <-release; return nil, nil },
		},
		ID: "statusd-w1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defer close(release) // LIFO: unblock the handler before Close drains it
	b.Submit(tasks.Job{ID: "queued-job", Kind: "wait"})

	// The session registers asynchronously after the worker's hello.
	deadline := time.Now().Add(5 * time.Second)
	var body struct {
		Durable        bool `json:"durable"`
		DurablePending int  `json:"durable_pending"`
		Sessions       []struct {
			ID       string `json:"id"`
			Capacity int    `json:"capacity"`
		} `json:"sessions"`
	}
	for {
		if code := getJSON(t, ts.URL+"/api/broker", &body); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if len(body.Sessions) == 1 && body.DurablePending >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("broker state never settled: %+v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !body.Durable {
		t.Error("durable = false, want true (broker has a DB)")
	}
	if body.Sessions[0].ID != "statusd-w1" || body.Sessions[0].Capacity != 3 {
		t.Errorf("session = %+v", body.Sessions[0])
	}
}
