// Package gateway is gem5art's multi-tenant API edge: bearer-token
// authentication, per-tenant database namespaces, admission-controlled
// dispatch with weighted fair queueing, and a token-bucket rate
// limiter in front of the HTTP surface. It grows the status daemon from
// a read-mostly dashboard into a shared experiment service: several
// groups submit sweeps to one broker or sharded fleet without seeing —
// or starving — each other.
package gateway

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/database/storage"
)

// Gateway serves the authenticated submit API in front of an inner
// handler (normally the status daemon's read-only routes). Construct
// with New, mount Handler, and Wait after closing the executor.
type Gateway struct {
	ctrl  *Controller
	ex    tasks.Executor
	store storage.Store
	next  http.Handler

	tenants atomic.Pointer[tenantSet]
	limiter *limiter

	// docMu serializes read-modify-write cycles on launch documents
	// (result pump vs. cancel handler) and guards tallies.
	docMu sync.Mutex
	// tallies holds the run counts of every launch this process has
	// applied a result to and that is not yet terminal, keyed by
	// tenant/launch, so a result costs two commits and no count.
	tallies map[string]*launchTally
	pump    sync.WaitGroup
}

// launchTally is one launch's run counts by terminal status.
type launchTally struct{ total, done, failed, canceled int }

// New wires a gateway over an executor and a store. ctrl is the
// admission controller (pass nil for a fresh one over cfg's quotas); it
// is bound to ex.Submit, and the result pump starts consuming
// ex.Results() immediately: the gateway must be its only consumer. next
// handles every route the gateway does not own (pass nil for none).
func New(cfg *Config, ctrl *Controller, ex tasks.Executor, store storage.Store, next http.Handler) *Gateway {
	if ctrl == nil {
		ctrl = NewController(cfg)
	}
	g := &Gateway{
		ctrl:    ctrl,
		ex:      ex,
		store:   store,
		next:    next,
		limiter: newLimiter(),
		tallies: make(map[string]*launchTally),
	}
	g.tenants.Store(newTenantSet(cfg))
	g.ctrl.Bind(ex.Submit, g.jobDropped)
	g.pump.Add(1)
	go g.runPump()
	return g
}

// Reload swaps in a new tenant/quota config atomically. In-flight
// requests finish against the old snapshot; parked queues and in-flight
// accounting survive. This is the SIGHUP path.
func (g *Gateway) Reload(cfg *Config) {
	g.tenants.Store(newTenantSet(cfg))
	g.ctrl.SetConfig(cfg)
}

// Wait blocks until the result pump has drained, which happens once the
// executor's result channel closes (its Close).
func (g *Gateway) Wait() { g.pump.Wait() }

// Handler returns the gateway's route table. The gateway owns the
// authenticated /api/launches surface and /api/whoami; everything else
// falls through to the inner handler.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/launches", g.route(g.handleSubmit))
	mux.HandleFunc("GET /api/launches", g.route(g.handleList))
	mux.HandleFunc("GET /api/launches/{id}", g.route(g.handleGet))
	mux.HandleFunc("GET /api/launches/{id}/runs", g.route(g.handleRuns))
	mux.HandleFunc("DELETE /api/launches/{id}", g.route(g.handleCancel))
	mux.HandleFunc("GET /api/whoami", g.route(g.handleWhoami))
	if g.next != nil {
		mux.Handle("/", g.next)
	}
	return mux
}

// route wraps a handler with the shared edge policy: authenticate, then
// spend one rate-limit token. Order matters — unauthenticated traffic
// must not drain a tenant's bucket, and rate rejections must not hide
// auth failures.
func (g *Gateway) route(h func(http.ResponseWriter, *http.Request, *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := g.authenticate(w, r)
		if tenant == nil {
			return
		}
		if ok, wait := g.limiter.allow(tenant.ID, tenant.Rate); !ok {
			retryAfter(w, wait)
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":       "rate limit exceeded",
				"retry_after": wait.Seconds(),
			})
			return
		}
		h(w, r, tenant)
	}
}

// maxSpecBytes bounds the submit body; a launch spec is a few hundred
// bytes, so anything near the cap is a client bug, not a big sweep.
const maxSpecBytes = 1 << 20

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request, tenant *Tenant) {
	var spec LaunchSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad launch spec: " + err.Error()})
		return
	}
	launchID := newLaunchID()
	jobs, err := spec.Jobs(tenant.ID, launchID)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := g.ctrl.Reserve(tenant.ID, jobs); err != nil {
		g.writeQuotaError(w, err)
		return
	}
	// The reservation is held; record the launch before dispatching so
	// results never race an unwritten run document.
	db := Namespace(g.store, tenant.ID)
	now := time.Now().UTC().Format(time.RFC3339)
	if _, err := db.Collection("launches").InsertOne(storage.Doc{
		"_id": launchID, "name": spec.Name, "suite": spec.Suite,
		"status": "running", "jobs": len(jobs), "done": 0, "failed": 0,
		"canceled": 0, "created": now,
	}); err != nil {
		g.ctrl.CancelPrefix(tenant.ID, jobPrefix(tenant.ID, launchID))
		g.writeStoreError(w, err)
		return
	}
	runs := make([]storage.Doc, len(jobs))
	for i, j := range jobs {
		var params map[string]any
		_ = json.Unmarshal(j.Payload, &params)
		runs[i] = storage.Doc{
			"job_id": j.ID, "launch_id": launchID, "index": i,
			"status": "queued", "params": params,
		}
	}
	if err := g.runs(tenant.ID).InsertMany(runs); err != nil {
		g.ctrl.CancelPrefix(tenant.ID, jobPrefix(tenant.ID, launchID))
		g.writeStoreError(w, err)
		return
	}
	gwLaunches.With(tenant.ID).Inc()
	g.ctrl.Kick()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"launch": launchID, "jobs": len(jobs), "status": "running",
	})
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request, tenant *Tenant) {
	db := Namespace(g.store, tenant.ID)
	docs := db.Collection("launches").Find(nil)
	writeJSON(w, http.StatusOK, map[string]any{"launches": docs})
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request, tenant *Tenant) {
	db := Namespace(g.store, tenant.ID)
	doc := db.Collection("launches").FindOne(storage.Doc{"_id": r.PathValue("id")})
	if doc == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such launch"})
		return
	}
	doc["in_flight"] = g.ctrl.InFlight(tenant.ID)
	doc["queued"] = g.ctrl.Queued(tenant.ID)
	writeJSON(w, http.StatusOK, doc)
}

func (g *Gateway) handleRuns(w http.ResponseWriter, r *http.Request, tenant *Tenant) {
	db := Namespace(g.store, tenant.ID)
	id := r.PathValue("id")
	if db.Collection("launches").FindOne(storage.Doc{"_id": id}) == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such launch"})
		return
	}
	docs := g.runs(tenant.ID).Find(storage.Doc{"launch_id": id})
	writeJSON(w, http.StatusOK, map[string]any{"runs": docs})
}

func (g *Gateway) handleCancel(w http.ResponseWriter, r *http.Request, tenant *Tenant) {
	id := r.PathValue("id")
	db := Namespace(g.store, tenant.ID)
	launches := db.Collection("launches")
	if launches.FindOne(storage.Doc{"_id": id}) == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such launch"})
		return
	}
	canceled := g.ctrl.CancelPrefix(tenant.ID, jobPrefix(tenant.ID, id))
	g.docMu.Lock()
	runs := g.runs(tenant.ID)
	for _, j := range canceled {
		_, _ = runs.UpdateOne(storage.Doc{"job_id": j.ID, "status": "queued"}, storage.Doc{"status": "canceled"})
	}
	// Cancels are rare: recount rather than advance the tally.
	delete(g.tallies, tallyKey(tenant.ID, id))
	t, _ := g.tallyLocked(tenant.ID, id)
	g.writeLaunchLocked(tenant.ID, id, t, true)
	g.docMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"launch": id, "canceled": len(canceled),
	})
}

func (g *Gateway) handleWhoami(w http.ResponseWriter, r *http.Request, tenant *Tenant) {
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":    tenant.ID,
		"quota":     tenant.Quota,
		"rate":      tenant.Rate,
		"in_flight": g.ctrl.InFlight(tenant.ID),
		"queued":    g.ctrl.Queued(tenant.ID),
	})
}

// runPump applies executor results to the owning tenant's run and
// launch documents. It frees the job's in-flight slot first, so parked
// work dispatches into it while the two commits run.
func (g *Gateway) runPump() {
	defer g.pump.Done()
	for res := range g.ex.Results() {
		tenant := TenantOf(res.ID)
		if tenant == "" {
			continue // not a gateway job
		}
		g.ctrl.Release(res.ID)
		set := storage.Doc{"status": "done", "output": decodeRaw(res.Output)}
		if res.Err != "" {
			set = storage.Doc{"status": "failed", "error": res.Err}
		}
		g.applyResult(tenant, res.ID, set)
	}
}

// jobDropped is the controller's refusal callback: a parked job was
// lost (executor closed mid-drain), so its run fails visibly rather
// than staying "queued" forever.
func (g *Gateway) jobDropped(j tasks.Job, err error) {
	if tenant := TenantOf(j.ID); tenant != "" {
		g.applyResult(tenant, j.ID, storage.Doc{"status": "failed", "error": err.Error()})
	}
}

// runs returns tenant's run collection with its indexes declared:
// unique on job_id (the result path's lookup) and plain on launch_id
// (listing, recount). Declaring again is a no-op.
func (g *Gateway) runs(tenant string) storage.Collection {
	c := Namespace(g.store, tenant).Collection("runs")
	c.CreateUniqueIndex("job_id")
	c.CreateIndex("launch_id")
	return c
}

// applyResult moves one run from "queued" to the terminal status in
// set and advances its launch. The status guard in the filter is what
// makes this idempotent: a duplicate or late result, or a result for a
// run that was canceled meanwhile, matches nothing, so it can neither
// be counted twice nor overwrite the run.
func (g *Gateway) applyResult(tenant, jobID string, set storage.Doc) {
	g.docMu.Lock()
	defer g.docMu.Unlock()
	matched, _ := g.runs(tenant).UpdateOne(storage.Doc{"job_id": jobID, "status": "queued"}, set)
	if !matched {
		return
	}
	launchID := launchOf(jobID)
	t, fresh := g.tallyLocked(tenant, launchID)
	if !fresh { // a fresh recount already saw this run
		if set["status"] == "done" {
			t.done++
		} else {
			t.failed++
		}
	}
	g.writeLaunchLocked(tenant, launchID, t, false)
}

func tallyKey(tenant, launchID string) string { return tenant + "/" + launchID }

// tallyLocked returns the launch's tally, recounting it from the run
// documents (index-served) the first time this process touches the
// launch; fresh reports that it did. Counting from the runs rather than
// trusting the launch document is what lets a new gateway pick up after
// one that died between a run commit and its launch commit. Callers
// hold docMu.
func (g *Gateway) tallyLocked(tenant, launchID string) (t *launchTally, fresh bool) {
	key := tallyKey(tenant, launchID)
	if t, ok := g.tallies[key]; ok {
		return t, false
	}
	runs := g.runs(tenant)
	count := func(status string) int {
		return runs.Count(storage.Doc{"launch_id": launchID, "status": status})
	}
	t = &launchTally{
		total:    runs.Count(storage.Doc{"launch_id": launchID}),
		done:     count("done"),
		failed:   count("failed"),
		canceled: count("canceled"),
	}
	g.tallies[key] = t
	return t, true
}

// writeLaunchLocked writes the tally to the launch document, closes the
// launch out once every run is terminal, and then forgets the tally.
// Callers hold docMu, so the read-modify-write cannot interleave with
// another updater.
func (g *Gateway) writeLaunchLocked(tenant, launchID string, t *launchTally, canceled bool) {
	set := storage.Doc{"done": t.done, "failed": t.failed, "canceled": t.canceled}
	terminal := t.total > 0 && t.done+t.failed+t.canceled == t.total
	if canceled {
		set["status"] = "canceled"
	} else if terminal {
		set["status"] = "finished"
		set["completed"] = time.Now().UTC().Format(time.RFC3339)
	}
	_, _ = Namespace(g.store, tenant).Collection("launches").UpdateOne(storage.Doc{"_id": launchID}, set)
	if terminal {
		delete(g.tallies, tallyKey(tenant, launchID))
	}
}

// writeQuotaError renders an admission rejection as 429 + Retry-After;
// anything else is a 500.
func (g *Gateway) writeQuotaError(w http.ResponseWriter, err error) {
	var quota *QuotaExceededError
	if errors.As(err, &quota) {
		retryAfter(w, quota.RetryAfter)
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":       quota.Error(),
			"tenant":      quota.Tenant,
			"reason":      quota.Reason,
			"limit":       quota.Limit,
			"retry_after": quota.RetryAfter.Seconds(),
		})
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

// writeStoreError renders a storage failure. A store that went
// read-only after a durability failure (disk full, dead disk) is a 503
// with the degraded reason — the instance is out, not the request —
// while anything else stays a 500.
func (g *Gateway) writeStoreError(w http.ResponseWriter, err error) {
	var deg *storage.DegradedError
	if errors.As(err, &deg) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  deg.Error(),
			"reason": deg.Reason,
			"status": "storage degraded (read-only)",
		})
		return
	}
	writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
}

// jobPrefix is the ID prefix shared by every job of one launch.
func jobPrefix(tenant, launchID string) string {
	return fmt.Sprintf("%s%s/%s/", jobIDPrefix, tenant, launchID)
}

// launchOf extracts the launch ID from a gateway job ID.
func launchOf(jobID string) string {
	parts := strings.SplitN(jobID, "/", 4)
	if len(parts) < 4 {
		return ""
	}
	return parts[2]
}

// newLaunchID mints a short random launch identifier. Collisions inside
// one tenant namespace are 2^48-unlikely and rejected by the insert's
// _id uniqueness anyway.
func newLaunchID() string {
	var b [6]byte
	_, _ = rand.Read(b[:])
	return "l" + hex.EncodeToString(b[:])
}

// decodeRaw unwraps a worker's JSON output for embedding in a document.
func decodeRaw(raw json.RawMessage) any {
	if len(raw) == 0 {
		return nil
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return string(raw)
	}
	return v
}

// retryAfter sets the Retry-After header, rounding up to whole seconds
// as the header requires.
func retryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
}

// writeJSON writes a JSON response, setting Content-Type before the
// status line so the header actually applies.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
