package gateway

// End-to-end acceptance: two tenants submit launches over authenticated
// HTTP to a gateway fronting a real sharded fleet with live workers.
// Runs complete, tenants cannot see each other's launches, an
// over-quota tenant is refused with 429 and succeeds once capacity
// frees, and the per-tenant gateway metrics report the traffic.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/core/tasks/shard"
	"gem5art/internal/database"
	"gem5art/internal/statusd"
)

// scrapeMetric reads one series' value from /metrics exposition text,
// e.g. scrapeMetric(body, `gem5art_gateway_jobs_admitted_total{tenant="alpha"}`).
func scrapeMetric(body, series string) float64 {
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := strings.TrimSpace(line[len(series):])
		v, err := strconv.ParseFloat(rest, 64)
		if err == nil {
			return v
		}
	}
	return 0
}

func TestEndToEndTwoTenantsShardedFleet(t *testing.T) {
	cfg := testConfig(
		TenantConfig{ID: "alpha", Token: "tok-alpha",
			Quota: &Quota{MaxInFlight: 16, MaxQueued: 64, Weight: 2}},
		TenantConfig{ID: "beta", Token: "tok-beta",
			Quota: &Quota{MaxInFlight: 2, MaxQueued: 2, Weight: 1}},
	)
	db := database.MustOpen("")
	defer db.Close()

	f, err := shard.NewFleet(shard.Options{
		Shards: 2,
		Dir:    t.TempDir(),
		Broker: tasks.BrokerOptions{
			HeartbeatTimeout: 400 * time.Millisecond,
			Lease:            800 * time.Millisecond,
			Retry:            tasks.RetryPolicy{MaxAttempts: 5, BaseDelay: 5 * time.Millisecond},
		},
		LeaseTTL:     120 * time.Millisecond,
		ShipInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One fast worker per shard handling the boot suite's job kind. The
	// handler blocks until the over-quota check below has run: otherwise
	// beta's jobs can complete between two submits, freeing capacity and
	// turning the expected 429 into a 202.
	release := make(chan struct{})
	fastBoot := func(json.RawMessage) (any, error) {
		<-release
		return map[string]any{"outcome": "kernel_panic_free", "sim_seconds": 0.01}, nil
	}
	for s := 0; s < 2; s++ {
		s := s
		w, err := tasks.NewWorkerWithOptions(f.ShardAddr(s), tasks.WorkerOptions{
			Capacity:          4,
			Handlers:          map[string]tasks.JobHandler{"boot": fastBoot},
			HeartbeatInterval: 25 * time.Millisecond,
			ID:                fmt.Sprintf("e2e-w%d", s),
			Reconnect:         true,
			Dial: func(string) (net.Conn, error) {
				return net.Dial("tcp", f.ShardAddr(s))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Kill)
	}

	// The full service-mode stack: gateway in front, statusd behind.
	sd := statusd.New(db)
	sd.Fleet = f
	g := New(cfg, nil, f, db, sd.Handler())
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	defer g.Wait()
	defer f.Close()

	metricsBefore := func() string {
		resp := apiReq(t, "GET", srv.URL+"/metrics", "", nil)
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	before := metricsBefore()
	alphaAdmitted0 := scrapeMetric(before, `gem5art_gateway_jobs_admitted_total{tenant="alpha"}`)
	betaAdmitted0 := scrapeMetric(before, `gem5art_gateway_jobs_admitted_total{tenant="beta"}`)

	// Both tenants submit; alpha's sweep is larger than one shard's
	// worker capacity so jobs spread across the ring.
	alphaLaunch, resp := submitLaunch(t, srv, "tok-alpha", 10)
	if resp.StatusCode != 202 {
		t.Fatalf("alpha launch: status %d", resp.StatusCode)
	}
	betaLaunch, resp := submitLaunch(t, srv, "tok-beta", 4)
	if resp.StatusCode != 202 {
		t.Fatalf("beta launch: status %d", resp.StatusCode)
	}

	// Beta is at in-flight(2)+parked(2): one more job must be refused.
	_, resp = submitLaunch(t, srv, "tok-beta", 1)
	if resp.StatusCode != 429 {
		t.Fatalf("beta over-quota: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(release)

	// Both launches run to completion through the real fleet.
	waitLaunch := func(token, id string) map[string]any {
		var doc map[string]any
		waitFor(t, func() bool {
			resp := apiReq(t, "GET", srv.URL+"/api/launches/"+id, token, nil)
			if resp.StatusCode != 200 {
				return false
			}
			doc = decodeBody(t, resp)
			return doc["status"] == "finished"
		}, "launch "+id+" finished")
		return doc
	}
	alphaDoc := waitLaunch("tok-alpha", alphaLaunch)
	betaDoc := waitLaunch("tok-beta", betaLaunch)
	if got := alphaDoc["done"].(float64); got != 10 {
		t.Fatalf("alpha done = %v, want 10 (doc %v)", got, alphaDoc)
	}
	if got := betaDoc["failed"].(float64); got != 0 {
		t.Fatalf("beta failed = %v, want 0 (doc %v)", got, betaDoc)
	}

	// Capacity freed: the launch beta was refused now clears admission.
	retryLaunch, resp := submitLaunch(t, srv, "tok-beta", 1)
	if resp.StatusCode != 202 {
		t.Fatalf("beta retry after drain: status %d, want 202", resp.StatusCode)
	}
	waitLaunch("tok-beta", retryLaunch)

	// Tenant isolation over the live API: beta cannot read alpha's
	// launch, and neither list leaks across namespaces.
	resp = apiReq(t, "GET", srv.URL+"/api/launches/"+alphaLaunch, "tok-beta", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("cross-tenant read: status %d, want 404", resp.StatusCode)
	}
	resp = apiReq(t, "GET", srv.URL+"/api/launches", "tok-alpha", nil)
	for _, l := range decodeBody(t, resp)["launches"].([]any) {
		if l.(map[string]any)["_id"] == betaLaunch {
			t.Fatal("alpha's launch list contains beta's launch")
		}
	}

	// Per-tenant gateway metrics report the admitted traffic (deltas:
	// the registry is process-global and other tests also feed it).
	after := metricsBefore()
	if d := scrapeMetric(after, `gem5art_gateway_jobs_admitted_total{tenant="alpha"}`) - alphaAdmitted0; d != 10 {
		t.Errorf("alpha admitted delta = %v, want 10", d)
	}
	if d := scrapeMetric(after, `gem5art_gateway_jobs_admitted_total{tenant="beta"}`) - betaAdmitted0; d != 5 {
		t.Errorf("beta admitted delta = %v, want 5", d)
	}
	if v := scrapeMetric(after, `gem5art_gateway_jobs_rejected_total{tenant="beta",reason="queue_full"}`); v < 1 {
		t.Errorf("beta queue_full rejections = %v, want >= 1", v)
	}
	if v := scrapeMetric(after, `gem5art_gateway_launches_total{tenant="beta"}`); v < 2 {
		t.Errorf("beta launches = %v, want >= 2", v)
	}
}
