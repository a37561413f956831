package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
)

func testConfig(tenants ...TenantConfig) *Config {
	return &Config{
		DefaultQuota: DefaultQuota,
		DefaultRate:  Rate{RPS: 1000, Burst: 1000},
		Tenants:      tenants,
	}
}

// stubBackend is an in-process tasks.Executor: it records submissions
// and completes jobs only when the test says so. Admission and release
// are the gateway's, so the stub does neither.
type stubBackend struct {
	res chan tasks.JobResult

	mu        sync.Mutex
	submitted []tasks.Job
}

func newStubBackend() *stubBackend {
	return &stubBackend{res: make(chan tasks.JobResult, 1024)}
}

func (s *stubBackend) Submit(j tasks.Job) error {
	s.mu.Lock()
	s.submitted = append(s.submitted, j)
	s.mu.Unlock()
	return nil
}

func (s *stubBackend) Results() <-chan tasks.JobResult { return s.res }

func (s *stubBackend) Close() { close(s.res) }

// completeAll finishes every submitted-but-unfinished job and returns
// how many it completed.
func (s *stubBackend) completeAll() int {
	s.mu.Lock()
	batch := s.submitted
	s.submitted = nil
	s.mu.Unlock()
	for _, j := range batch {
		s.res <- tasks.JobResult{ID: j.ID, Output: json.RawMessage(`{"ok":true}`)}
	}
	return len(batch)
}

func (s *stubBackend) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.submitted)
}

// testGateway builds a gateway over a stub backend and an in-memory
// store, served by httptest.
func testGateway(t *testing.T, cfg *Config) (*Gateway, *stubBackend, *httptest.Server) {
	t.Helper()
	db := database.MustOpen("")
	t.Cleanup(func() { db.Close() })
	backend := newStubBackend()
	g := New(cfg, nil, backend, db, nil)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
		g.Wait()
	})
	return g, backend, srv
}

func apiReq(t *testing.T, method, url, token string, body any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return m
}

func TestAuthFailurePaths(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "alpha", Token: "tok-alpha"},
		TenantConfig{ID: "old", Token: "tok-old", Expires: "2001-01-01T00:00:00Z"},
	)
	_, _, srv := testGateway(t, cfg)

	cases := []struct {
		name   string
		header string
	}{
		{"missing", ""},
		{"malformed scheme", "Basic abc"},
		{"malformed empty", "Bearer  "},
		{"unknown", "Bearer nope"},
		{"expired", "Bearer tok-old"},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest("GET", srv.URL+"/api/launches", nil)
		if tc.header != "" {
			req.Header.Set("Authorization", tc.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status = %d, want 401", tc.name, resp.StatusCode)
		}
		if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
			t.Errorf("%s: WWW-Authenticate = %q", tc.name, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", tc.name, ct)
		}
		resp.Body.Close()
	}

	// A valid token still works alongside the failures.
	resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid token: status = %d, want 200", resp.StatusCode)
	}
	if got := decodeBody(t, resp)["tenant"]; got != "alpha" {
		t.Fatalf("whoami tenant = %v, want alpha", got)
	}
}

func TestRateLimiterBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newLimiter()
	l.now = func() time.Time { return now }
	rate := Rate{RPS: 1, Burst: 3}

	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("t", rate); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, wait := l.allow("t", rate)
	if ok {
		t.Fatal("4th request allowed, want rejection")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v, want (0, 1s]", wait)
	}

	now = now.Add(time.Second) // refills exactly one token
	if ok, _ := l.allow("t", rate); !ok {
		t.Fatal("request after refill rejected")
	}
	if ok, _ := l.allow("t", rate); ok {
		t.Fatal("second request after single refill allowed")
	}
}

func TestRateLimitHTTP429(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Rate: &Rate{RPS: 0.001, Burst: 2},
	})
	_, _, srv := testGateway(t, cfg)

	for i := 0; i < 2; i++ {
		resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
	}
	resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

func TestNamespaceIsolation(t *testing.T) {
	db := database.MustOpen("")
	defer db.Close()

	a := Namespace(db, "alpha")
	b := Namespace(db, "beta")
	if _, err := a.Collection("runs").InsertOne(database.Doc{"_id": "r1", "who": "alpha"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Collection("runs").InsertOne(database.Doc{"_id": "r1", "who": "beta"}); err != nil {
		t.Fatalf("same _id in sibling namespace rejected: %v", err)
	}

	if got := a.Collection("runs").FindOne(database.Doc{"_id": "r1"})["who"]; got != "alpha" {
		t.Fatalf("alpha sees %v", got)
	}
	if got := b.Collection("runs").FindOne(database.Doc{"_id": "r1"})["who"]; got != "beta" {
		t.Fatalf("beta sees %v", got)
	}

	if names := a.CollectionNames(); len(names) != 1 || names[0] != "runs" {
		t.Fatalf("alpha CollectionNames = %v", names)
	}
	if name := a.Collection("runs").Name(); name != "runs" {
		t.Fatalf("namespaced collection Name = %q, want runs", name)
	}
	found := false
	for _, n := range db.CollectionNames() {
		if n == "t.alpha.runs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("underlying store missing t.alpha.runs: %v", db.CollectionNames())
	}
}

func TestSubmitValidation(t *testing.T) {
	cfg := testConfig(TenantConfig{ID: "alpha", Token: "tok-alpha"})
	_, _, srv := testGateway(t, cfg)

	cases := []struct {
		name string
		body any
	}{
		{"unknown suite", map[string]any{"suite": "quantum"}},
		{"bad axis name", map[string]any{"suite": "boot", "axes": map[string][]string{"flux": {"x"}}}},
		{"bad axis value", map[string]any{"suite": "boot", "axes": map[string][]string{"cpu": {"Pentium"}}}},
		{"unknown field", map[string]any{"suite": "boot", "bogus": 1}},
		{"negative limit", map[string]any{"suite": "boot", "limit": -1}},
	}
	for _, tc := range cases {
		resp := apiReq(t, "POST", srv.URL+"/api/launches", "tok-alpha", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func submitLaunch(t *testing.T, srv *httptest.Server, token string, limit int) (string, *http.Response) {
	t.Helper()
	resp := apiReq(t, "POST", srv.URL+"/api/launches", token,
		map[string]any{"suite": "boot", "limit": limit})
	if resp.StatusCode != http.StatusAccepted {
		return "", resp
	}
	return decodeBody(t, resp)["launch"].(string), resp
}

func TestQuota429ThenSuccessAfterCapacityFrees(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 2, MaxQueued: 2, Weight: 1},
	})
	g, backend, srv := testGateway(t, cfg)

	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 2 }, "2 jobs dispatched")
	if q := g.ctrl.Queued("alpha"); q != 2 {
		t.Fatalf("queued = %d, want 2", q)
	}

	// in-flight(2) + parked(2) + 1 exceeds MaxInFlight+MaxQueued.
	_, resp = submitLaunch(t, srv, "tok-alpha", 1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota launch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	body := decodeBody(t, resp)
	if body["reason"] != "queue full" {
		t.Fatalf("reason = %v, want queue full", body["reason"])
	}

	// Drain everything; the parked jobs dispatch as capacity frees.
	for done := 0; done < 4; {
		done += backend.completeAll()
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, func() bool {
		return g.ctrl.InFlight("alpha") == 0 && g.ctrl.Queued("alpha") == 0
	}, "quota fully released")

	// The same submit now clears admission.
	_, resp = submitLaunch(t, srv, "tok-alpha", 1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain launch: status %d, want 202", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 1 }, "new job dispatched")
	backend.completeAll()

	// The first launch reached "finished" with all runs done.
	waitFor(t, func() bool {
		resp := apiReq(t, "GET", srv.URL+"/api/launches/"+id, "tok-alpha", nil)
		return decodeBody(t, resp)["status"] == "finished"
	}, "launch finished")
}

func TestCancelDropsParkedJobsOnly(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 1, MaxQueued: 8, Weight: 1},
	})
	_, backend, srv := testGateway(t, cfg)

	id, resp := submitLaunch(t, srv, "tok-alpha", 4)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 1 }, "1 job in flight")

	resp = apiReq(t, "DELETE", srv.URL+"/api/launches/"+id, "tok-alpha", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if got := decodeBody(t, resp)["canceled"].(float64); got != 3 {
		t.Fatalf("canceled = %v, want 3 (the parked jobs)", got)
	}

	// The in-flight job still completes and is recorded.
	backend.completeAll()
	waitFor(t, func() bool {
		resp := apiReq(t, "GET", srv.URL+"/api/launches/"+id+"/runs", "tok-alpha", nil)
		body := decodeBody(t, resp)
		runs := body["runs"].([]any)
		var done, canceled int
		for _, r := range runs {
			switch r.(map[string]any)["status"] {
			case "done":
				done++
			case "canceled":
				canceled++
			}
		}
		return done == 1 && canceled == 3
	}, "1 done + 3 canceled runs")
}

func TestTenantCannotSeeOthersLaunches(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "alpha", Token: "tok-alpha"},
		TenantConfig{ID: "beta", Token: "tok-beta"},
	)
	_, backend, srv := testGateway(t, cfg)

	id, resp := submitLaunch(t, srv, "tok-alpha", 2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	backend.completeAll()

	resp = apiReq(t, "GET", srv.URL+"/api/launches/"+id, "tok-beta", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant get: status %d, want 404", resp.StatusCode)
	}
	resp = apiReq(t, "GET", srv.URL+"/api/launches", "tok-beta", nil)
	if launches := decodeBody(t, resp)["launches"]; launches != nil {
		t.Fatalf("beta sees launches: %v", launches)
	}
}

func TestReloadSwapsTokensWithoutDroppingState(t *testing.T) {
	cfg := testConfig(TenantConfig{
		ID: "alpha", Token: "tok-alpha",
		Quota: &Quota{MaxInFlight: 1, MaxQueued: 8, Weight: 1},
	})
	g, backend, srv := testGateway(t, cfg)

	if _, resp := submitLaunch(t, srv, "tok-alpha", 3); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("launch: status %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return backend.pending() == 1 }, "1 job in flight")

	g.Reload(testConfig(
		TenantConfig{ID: "alpha", Token: "tok-alpha2",
			Quota: &Quota{MaxInFlight: 1, MaxQueued: 8, Weight: 1}},
		TenantConfig{ID: "gamma", Token: "tok-gamma"},
	))

	if resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha", nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("old token after reload: status %d, want 401", resp.StatusCode)
	}
	resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-alpha2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new token: status %d", resp.StatusCode)
	}
	if resp := apiReq(t, "GET", srv.URL+"/api/whoami", "tok-gamma", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("added tenant: status %d", resp.StatusCode)
	}

	// Parked work survived the reload and still drains.
	if q := g.ctrl.Queued("alpha"); q != 2 {
		t.Fatalf("queued after reload = %d, want 2", q)
	}
	for done := 0; done < 3; {
		done += backend.completeAll()
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, func() bool { return g.ctrl.InFlight("alpha") == 0 }, "drained after reload")
}

func TestWeightedFairDispatch(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "heavy", Token: "t1",
			Quota: &Quota{MaxInFlight: 100, MaxQueued: 100, Weight: 3}},
		TenantConfig{ID: "light", Token: "t2",
			Quota: &Quota{MaxInFlight: 100, MaxQueued: 100, Weight: 1}},
	)
	ctrl := NewController(cfg)
	var mu sync.Mutex
	var order []string
	ctrl.Bind(func(j tasks.Job) error {
		mu.Lock()
		order = append(order, TenantOf(j.ID))
		mu.Unlock()
		return nil
	}, nil)

	park := func(tenant string, n int) {
		jobs := make([]tasks.Job, n)
		for i := range jobs {
			jobs[i] = tasks.Job{ID: fmt.Sprintf("g/%s/l0/%d", tenant, i), Kind: "boot"}
		}
		if err := ctrl.Reserve(tenant, jobs); err != nil {
			t.Fatal(err)
		}
	}
	park("heavy", 40)
	park("light", 40)
	ctrl.Kick()

	mu.Lock()
	first := order[:16]
	mu.Unlock()
	var heavy int
	for _, tn := range first {
		if tn == "heavy" {
			heavy++
		}
	}
	// Weight 3:1 → heavy should take ~12 of the first 16 dispatch slots.
	if heavy < 10 || heavy > 14 {
		t.Fatalf("heavy got %d of first 16 dispatches, want ~12 (3:1 weights); order=%v", heavy, first)
	}
}

func TestConcurrentTenantsAdmissionUnderRace(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "alpha", Token: "t1",
			Quota: &Quota{MaxInFlight: 4, MaxQueued: 100, Weight: 2}},
		TenantConfig{ID: "beta", Token: "t2",
			Quota: &Quota{MaxInFlight: 3, MaxQueued: 100, Weight: 1}},
	)
	ctrl := NewController(cfg)

	// The executor "finishes" each job from worker goroutines, which
	// release concurrently with new reservations.
	type doneJob struct{ j tasks.Job }
	doneCh := make(chan doneJob, 256)
	var inflightMu sync.Mutex
	peak := map[string]int{}
	live := map[string]int{}
	ctrl.Bind(func(j tasks.Job) error {
		tn := TenantOf(j.ID)
		inflightMu.Lock()
		live[tn]++
		if live[tn] > peak[tn] {
			peak[tn] = live[tn]
		}
		inflightMu.Unlock()
		doneCh <- doneJob{j}
		return nil
	}, nil)

	const perTenant = 50
	var wg sync.WaitGroup
	for _, tn := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				j := tasks.Job{ID: fmt.Sprintf("g/%s/l0/%d", tn, i), Kind: "boot"}
				if err := ctrl.Reserve(tn, []tasks.Job{j}); err != nil {
					t.Errorf("reserve %s/%d: %v", tn, i, err)
					return
				}
				ctrl.Kick()
			}
		}(tn)
	}

	finished := map[string]int{}
	var finMu sync.Mutex
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for d := range doneCh {
				tn := TenantOf(d.j.ID)
				inflightMu.Lock()
				live[tn]--
				inflightMu.Unlock()
				finMu.Lock()
				finished[tn]++
				finMu.Unlock()
				ctrl.Release(d.j.ID)
			}
		}()
	}

	wg.Wait()
	waitFor(t, func() bool {
		finMu.Lock()
		defer finMu.Unlock()
		return finished["alpha"] == perTenant && finished["beta"] == perTenant
	}, "all jobs finished")
	close(doneCh)
	workers.Wait()

	// Admission must have held every tenant under its in-flight cap the
	// whole time, concurrently.
	if peak["alpha"] > 4 {
		t.Fatalf("alpha peak in-flight = %d, cap 4", peak["alpha"])
	}
	if peak["beta"] > 3 {
		t.Fatalf("beta peak in-flight = %d, cap 3", peak["beta"])
	}
}

func TestAdmitIdempotentPerJobID(t *testing.T) {
	cfg := testConfig(TenantConfig{ID: "alpha", Token: "t",
		Quota: &Quota{MaxInFlight: 1, MaxQueued: 1, Weight: 1}})
	ctrl := NewController(cfg)
	var submitted []string
	ctrl.Bind(func(j tasks.Job) error {
		submitted = append(submitted, j.ID)
		return nil
	}, nil)
	if err := ctrl.Reserve("alpha", []tasks.Job{{ID: "g/alpha/l0/0"}, {ID: "g/alpha/l0/1"}}); err != nil {
		t.Fatal(err)
	}
	ctrl.Kick()
	if len(submitted) != 1 || ctrl.InFlight("alpha") != 1 || ctrl.Queued("alpha") != 1 {
		t.Fatalf("after Kick: submitted %v, in-flight %d, queued %d; want 1, 1, 1",
			submitted, ctrl.InFlight("alpha"), ctrl.Queued("alpha"))
	}
	// A durable broker redelivers a finished job's recorded result when
	// the job is submitted again: the second release of one ID must not
	// free the slot the next job took.
	ctrl.Release("g/alpha/l0/0")
	ctrl.Release("g/alpha/l0/0")
	if len(submitted) != 2 || ctrl.InFlight("alpha") != 1 {
		t.Fatalf("after a double release: submitted %v, in-flight %d; want 2 jobs, 1 in flight",
			submitted, ctrl.InFlight("alpha"))
	}
	ctrl.Release("g/alpha/l0/1")
	ctrl.Release("plain-job") // never dispatched: a no-op
	if got := ctrl.InFlight("alpha"); got != 0 {
		t.Fatalf("in-flight after release = %d, want 0", got)
	}
}

func TestConfigEnvOverlayAndValidation(t *testing.T) {
	cfg := &Config{Tenants: []TenantConfig{{ID: "filed", Token: "from-file"}}}
	cfg.applyEnv([]string{
		"GEM5ART_GATEWAY_TOKEN_FILED=overridden",
		"GEM5ART_GATEWAY_TOKEN_ENVONLY=fresh",
		"UNRELATED=x",
	})
	if cfg.Tenants[0].Token != "overridden" {
		t.Fatalf("file token not overridden: %q", cfg.Tenants[0].Token)
	}
	if len(cfg.Tenants) != 2 || cfg.Tenants[1].ID != "envonly" {
		t.Fatalf("env tenant not added: %+v", cfg.Tenants)
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}

	bad := &Config{Tenants: []TenantConfig{{ID: "No/Slash", Token: "x"}}}
	if err := bad.validate(); err == nil {
		t.Fatal("invalid tenant id accepted")
	}
	dup := &Config{Tenants: []TenantConfig{{ID: "a", Token: "x"}, {ID: "a", Token: "y"}}}
	if err := dup.validate(); err == nil {
		t.Fatal("duplicate tenant id accepted")
	}
}

func TestParseQuotaAndRate(t *testing.T) {
	q, err := ParseQuota("in-flight=5,queued=10,weight=2")
	if err != nil {
		t.Fatal(err)
	}
	if q != (Quota{MaxInFlight: 5, MaxQueued: 10, Weight: 2}) {
		t.Fatalf("quota = %+v", q)
	}
	if _, err := ParseQuota("bogus=1"); err == nil {
		t.Fatal("unknown quota key accepted")
	}
	r, err := ParseRate("rps=2.5,burst=7")
	if err != nil {
		t.Fatal(err)
	}
	if r.RPS != 2.5 || r.Burst != 7 {
		t.Fatalf("rate = %+v", r)
	}
	if _, err := ParseRate("rps=fast"); err == nil {
		t.Fatal("bad rate value accepted")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
