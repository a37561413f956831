// Package statusd implements the gem5art status/metrics HTTP daemon:
// a small server exposing Prometheus metrics, run status backed by the
// embedded database, broker lease state, and a live SSE stream of
// run-lifecycle events. It is served standalone by cmd/gem5artd and
// embedded in gem5art/gem5worker via the -metrics-addr flag.
package statusd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"gem5art/internal/core/tasks"
	"gem5art/internal/core/tasks/shard"
	"gem5art/internal/database"
	"gem5art/internal/database/storage"
	"gem5art/internal/simcache"
	"gem5art/internal/telemetry"
	"gem5art/internal/version"
)

// Server wires the process-wide telemetry registry and event bus to an
// HTTP handler. DB and Broker are optional: endpoints backed by an
// absent component report 503 rather than panicking, so a worker (which
// has no database) can still expose /metrics and /healthz.
//
// Two sharded modes layer on top. With Fleet set, the daemon fronts an
// in-process sharded control plane: /api/shards serves the routing map
// and /api/broker aggregates every shard primary's state. With
// ShardURLs set, the daemon is a pure front tier over other statusd
// instances: /api/runs and /api/broker fan out across them and degrade
// — marked, not hidden — when a backend is unreachable.
type Server struct {
	Registry *telemetry.Registry
	Bus      *telemetry.EventBus
	DB       database.Store
	Broker   *tasks.Broker
	Cache    *simcache.Cache
	Fleet    *shard.Fleet
	// Scrubber, when set, exposes the background integrity scrubber's
	// last report on /api/scrub and summarizes it in /healthz.
	Scrubber *database.Scrubber
	// ShardURLs are backend statusd base URLs (e.g. "http://host:port")
	// this instance aggregates over in front-tier mode.
	ShardURLs []string
	// SSEWriteTimeout bounds each SSE write; a client that cannot keep
	// up is dropped instead of wedging the stream goroutine (default 5s).
	SSEWriteTimeout time.Duration
	Start           time.Time

	// stop ends long-lived handlers (the SSE stream) during graceful
	// shutdown. Lazily initialized so struct-literal construction — the
	// test idiom throughout this package — keeps working.
	stopMu sync.Mutex
	stop   chan struct{}
}

// stopCh returns the shutdown signal channel, creating it on first use.
func (s *Server) stopCh() <-chan struct{} {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if s.stop == nil {
		s.stop = make(chan struct{})
	}
	return s.stop
}

// beginShutdown releases every long-lived handler. Idempotent.
func (s *Server) beginShutdown() {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if s.stop == nil {
		s.stop = make(chan struct{})
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
}

// New returns a server over the process defaults (telemetry.Default,
// telemetry.Bus) and the given database, which may be nil.
func New(db database.Store) *Server {
	return &Server{
		Registry: telemetry.Default,
		Bus:      telemetry.Bus,
		DB:       db,
		Start:    time.Now(),
	}
}

// Handler builds the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.Registry.Handler())
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /api/version", s.version)
	mux.HandleFunc("GET /api/runs", s.listRuns)
	mux.HandleFunc("GET /api/runs/{id}", s.getRun)
	mux.HandleFunc("GET /api/broker", s.brokerState)
	mux.HandleFunc("GET /api/shards", s.shardMap)
	mux.HandleFunc("GET /api/cache", s.cacheStats)
	mux.HandleFunc("GET /api/scrub", s.scrubReport)
	mux.HandleFunc("GET /api/cache/checkpoints/{hash}", s.cacheCheckpoint)
	mux.HandleFunc("GET /api/events", s.events)
	return mux
}

// Daemon is a started statusd (or gateway-wrapped) HTTP server with a
// graceful stop: Shutdown releases the SSE streams first, then drains
// in-flight requests under the caller's deadline.
type Daemon struct {
	Addr string

	srv  *http.Server
	s    *Server
	errc chan error
}

// StartDaemon serves handler on addr (":0" picks a free port). handler
// defaults to s.Handler(); pass a wrapping handler (the gateway) to
// mount extra routes while keeping s's shutdown behaviour.
func StartDaemon(addr string, s *Server, handler http.Handler) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statusd: listen %s: %w", addr, err)
	}
	if handler == nil {
		handler = s.Handler()
	}
	d := &Daemon{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: handler},
		s:    s,
		errc: make(chan error, 1),
	}
	go func() { d.errc <- d.srv.Serve(ln) }()
	return d, nil
}

// Err reports the serve loop's exit error (http.ErrServerClosed after a
// clean Shutdown).
func (d *Daemon) Err() <-chan error { return d.errc }

// Shutdown stops accepting connections and drains in-flight requests.
// SSE streams are signalled first — they would otherwise hold the drain
// open until their clients disconnect — and anything still running at
// ctx's deadline is cut off.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.s.beginShutdown()
	return d.srv.Shutdown(ctx)
}

// ListenAndServe starts the daemon on addr (":0" picks a free port) and
// returns the bound address. The server runs until the process exits;
// errors after startup are reported on the returned channel.
func ListenAndServe(addr string, s *Server) (string, <-chan error, error) {
	d, err := StartDaemon(addr, s, nil)
	if err != nil {
		return "", nil, err
	}
	return d.Addr, d.errc, nil
}

// version reports the build identity of the running daemon.
func (s *Server) version(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, version.Get())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// healthz reports 200 while every component backing this daemon can
// serve, and 503 with the reasons attached once one cannot — a load
// balancer (or an operator's curl) sees *why* the instance is out, not
// just that it is.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	var reasons []string
	var storageReason string
	if s.DB != nil {
		if h, ok := s.DB.(interface{ Health() error }); ok {
			if err := h.Health(); err != nil {
				reasons = append(reasons, "database: "+err.Error())
				var deg *storage.DegradedError
				if errors.As(err, &deg) {
					storageReason = deg.Reason
				}
			}
		}
	}
	if s.Broker != nil && s.Broker.Closed() {
		reasons = append(reasons, "broker: not serving")
	}
	if s.Fleet != nil {
		if err := s.Fleet.Health(); err != nil {
			reasons = append(reasons, "fleet: "+err.Error())
		}
	}
	body := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.Start).Seconds(),
		"database":       s.DB != nil,
		"broker":         s.Broker != nil,
	}
	if storageReason != "" {
		body["storage_degraded"] = storageReason
	}
	if s.Scrubber != nil {
		if rep := s.Scrubber.LastReport(); rep != nil {
			body["scrub"] = map[string]any{
				"last_run":    rep.Start,
				"corrupt":     rep.Corrupt,
				"quarantined": len(rep.Quarantined),
			}
		}
	}
	if s.Fleet != nil {
		body["shards"] = s.Fleet.Shards()
	}
	if len(reasons) > 0 {
		body["status"] = "unavailable"
		body["reasons"] = reasons
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// runSummary is the projection of a run document returned by the list
// endpoint — enough to render a dashboard row without the full spec.
type runSummary struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Status      string  `json:"status"`
	Outcome     string  `json:"outcome,omitempty"`
	Attempts    int     `json:"attempts"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

func summarize(d database.Doc) runSummary {
	rs := runSummary{
		ID:     str(d["_id"]),
		Name:   str(d["name"]),
		Status: str(d["status"]),
	}
	if o, ok := d["outcome"]; ok {
		rs.Outcome = str(o)
	}
	if atts, ok := d["attempts"].([]any); ok {
		rs.Attempts = len(atts)
	}
	if ws, ok := d["wall_seconds"].(float64); ok {
		rs.WallSeconds = ws
	}
	return rs
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

// fanout GETs path on every configured shard backend. Unreachable (or
// non-200) backends land in failed rather than aborting the whole
// aggregation — partial answers degrade, they don't disappear.
func (s *Server) fanout(path string) (bodies []json.RawMessage, failed []string) {
	client := &http.Client{Timeout: 2 * time.Second}
	for _, base := range s.ShardURLs {
		resp, err := client.Get(base + path)
		if err != nil {
			failed = append(failed, base+": "+err.Error())
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Status first: a proxy's plain-text 502 must report as the
			// status it is, not as the JSON decode error it would cause.
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			failed = append(failed, fmt.Sprintf("%s: status %d", base, resp.StatusCode))
			continue
		}
		var raw json.RawMessage
		err = json.NewDecoder(resp.Body).Decode(&raw)
		resp.Body.Close()
		if err != nil {
			failed = append(failed, base+": "+err.Error())
			continue
		}
		bodies = append(bodies, raw)
	}
	return bodies, failed
}

// listRunsFanout aggregates /api/runs across shard backends: summaries
// are merged, re-sorted by name (matching the single-node endpoint),
// and capped to ?limit= — each backend also caps at limit, so the merge
// can hold up to shards×limit rows before the cut. A partial failure
// marks the response degraded with the unreachable backends listed.
func (s *Server) listRunsFanout(w http.ResponseWriter, r *http.Request) {
	path := "/api/runs"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	bodies, failed := s.fanout(path)
	merged := make([]runSummary, 0, 64)
	for _, raw := range bodies {
		var page struct {
			Runs []runSummary `json:"runs"`
		}
		if err := json.Unmarshal(raw, &page); err != nil {
			failed = append(failed, "decode: "+err.Error())
			continue
		}
		merged = append(merged, page.Runs...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name })
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(merged) {
			merged = merged[:n]
		}
	}
	resp := map[string]any{"count": len(merged), "runs": merged, "shards": len(s.ShardURLs)}
	if len(failed) > 0 {
		resp["degraded"] = true
		resp["failed"] = failed
	}
	writeJSON(w, http.StatusOK, resp)
}

// listRuns returns run summaries, optionally filtered by ?status= and
// ?outcome=, sorted by name, capped by ?limit=.
func (s *Server) listRuns(w http.ResponseWriter, r *http.Request) {
	if len(s.ShardURLs) > 0 {
		s.listRunsFanout(w, r)
		return
	}
	if s.DB == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no database attached"})
		return
	}
	filter := database.Doc{}
	if v := r.URL.Query().Get("status"); v != "" {
		filter["status"] = v
	}
	if v := r.URL.Query().Get("outcome"); v != "" {
		filter["outcome"] = v
	}
	docs := s.DB.Collection("runs").Find(filter)
	sort.Slice(docs, func(i, j int) bool { return str(docs[i]["name"]) < str(docs[j]["name"]) })
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < len(docs) {
			docs = docs[:n]
		}
	}
	out := make([]runSummary, 0, len(docs))
	for _, d := range docs {
		out = append(out, summarize(d))
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(out), "runs": out})
}

// getRun returns the full run document plus its attempt history and,
// when a broker is attached, the live lease state of any in-flight
// assignment for the run.
func (s *Server) getRun(w http.ResponseWriter, r *http.Request) {
	if s.DB == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no database attached"})
		return
	}
	id := r.PathValue("id")
	doc := s.DB.Collection("runs").FindOne(database.Doc{"_id": id})
	if doc == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "run not found", "id": id})
		return
	}
	resp := map[string]any{"run": doc}
	if s.Broker != nil {
		st := s.Broker.State()
		for _, a := range st.InFlight {
			if a.JobID == id {
				resp["lease"] = a
				break
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// cacheStats serves the simulation cache's hit/miss/eviction counters.
func (s *Server) cacheStats(w http.ResponseWriter, _ *http.Request) {
	if s.Cache == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no cache attached"})
		return
	}
	writeJSON(w, http.StatusOK, s.Cache.Stats())
}

// scrubReport serves the background integrity scrubber's most recent
// report — journals verified, blobs re-hashed, corruption quarantined.
func (s *Server) scrubReport(w http.ResponseWriter, _ *http.Request) {
	if s.Scrubber == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no scrubber attached"})
		return
	}
	rep := s.Scrubber.LastReport()
	if rep == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "no scrub pass completed yet"})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// cacheCheckpoint serves a boot-class checkpoint blob by content hash —
// the endpoint workers fetch shared checkpoints from. The blob is
// integrity-verified against the hash before it leaves the daemon.
func (s *Server) cacheCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.Cache == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no cache attached"})
		return
	}
	hash := r.PathValue("hash")
	blob, err := s.Cache.CheckpointByHash(hash)
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error(), "hash": hash})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// shardBrokerState is one shard's slice of the aggregated /api/broker
// response.
type shardBrokerState struct {
	Index    int               `json:"index"`
	Addr     string            `json:"addr"`
	Epoch    uint64            `json:"epoch"`
	LagBytes int64             `json:"replication_lag_bytes"`
	State    tasks.BrokerState `json:"state"`
}

func (s *Server) brokerState(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.Fleet != nil:
		m := s.Fleet.Map()
		out := make([]shardBrokerState, 0, len(m.Shards))
		for _, info := range m.Shards {
			out = append(out, shardBrokerState{
				Index:    info.Index,
				Addr:     info.Addr,
				Epoch:    info.Epoch,
				LagBytes: s.Fleet.Lag(info.Index),
				State:    s.Fleet.Broker(info.Index).State(),
			})
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"sharded": true, "epoch": m.Epoch, "shards": out,
		})
	case len(s.ShardURLs) > 0:
		bodies, failed := s.fanout("/api/broker")
		resp := map[string]any{"sharded": true, "shards": bodies}
		if len(failed) > 0 {
			resp["degraded"] = true
			resp["failed"] = failed
		}
		writeJSON(w, http.StatusOK, resp)
	case s.Broker != nil:
		writeJSON(w, http.StatusOK, s.Broker.State())
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no broker attached"})
	}
}

// shardMap serves the epoch-numbered routing map workers re-resolve
// from on every (re)connect. In front-tier mode the
// map is proxied from the first reachable backend.
func (s *Server) shardMap(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.Fleet != nil:
		writeJSON(w, http.StatusOK, s.Fleet.Map())
	case len(s.ShardURLs) > 0:
		bodies, failed := s.fanout("/api/shards")
		if len(bodies) == 0 {
			writeJSON(w, http.StatusServiceUnavailable,
				map[string]any{"error": "no shard backend reachable", "failed": failed})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(bodies[0])
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no fleet attached"})
	}
}

// events streams run-lifecycle events as server-sent events. Recent
// history is replayed first (so a dashboard attaching mid-sweep sees
// context), then live events follow until the client disconnects — or
// until it stops reading: every write carries a deadline, and a client
// that cannot drain within it is dropped so one stalled dashboard
// cannot wedge the stream goroutine or backpressure the event bus.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	if _, ok := w.(http.Flusher); !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	rc := http.NewResponseController(w)
	timeout := s.SSEWriteTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: a client attaching to an idle stream must
	// see the response immediately, not after the first event happens
	// to fill the buffer.
	_ = rc.Flush()

	// push writes one event under the write deadline; false = drop client.
	push := func(ev telemetry.Event) bool {
		_ = rc.SetWriteDeadline(time.Now().Add(timeout))
		if err := writeSSE(w, ev); err != nil {
			return false
		}
		return rc.Flush() == nil
	}

	// Subscribe before replaying so no event falls between the replay
	// snapshot and the live stream; the seq guard below drops overlap.
	ch, cancel := s.Bus.Subscribe(64)
	defer cancel()

	stop := s.stopCh()

	var lastSeq uint64
	for _, ev := range s.Bus.Recent(64) {
		if !push(ev) {
			return
		}
		lastSeq = ev.Seq
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case <-stop:
			// Graceful shutdown: end the stream so the connection drain
			// is not held open by dashboards that never disconnect.
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			if ev.Seq <= lastSeq {
				continue
			}
			lastSeq = ev.Seq
			if !push(ev) {
				return
			}
		}
	}
}

func writeSSE(w http.ResponseWriter, ev telemetry.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return nil // unmarshalable event: skip it, keep the client
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	return err
}
