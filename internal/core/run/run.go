// Package run implements gem5art's run objects (§IV-C): a run is a
// special artifact that references every input artifact of one gem5
// experiment (simulator binary, repository, run script, kernel, disk
// image), the parameters of that single data point, and — once executed
// — a pointer to its results in the database.
package run

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/faultinject"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/simcache"
	"gem5art/internal/telemetry"
)

// Collection is the database collection run documents live in.
const Collection = "runs"

// Status of a run's lifecycle.
type Status string

// Run states.
const (
	Queued   Status = "queued"
	Running  Status = "running"
	Done     Status = "done"
	Failed   Status = "failed"
	TimedOut Status = "timed-out"
)

// FSSpec mirrors the parameters of the paper's createFSRun (Figure 4).
type FSSpec struct {
	Name       string // human-readable run name
	Gem5Binary string
	RunScript  string
	Output     string

	Gem5Artifact         *artifact.Artifact
	Gem5GitArtifact      *artifact.Artifact
	RunScriptGitArtifact *artifact.Artifact

	LinuxBinary string
	DiskImage   string

	LinuxBinaryArtifact *artifact.Artifact
	DiskImageArtifact   *artifact.Artifact

	Params  []string // "key=value" arguments to the run script
	Timeout time.Duration

	// Parallel > 0 executes the simulation on the parallel component/port
	// engine with that many workers. The engine is a distinct timing
	// model, so it salts the cache key (simcache.ParallelSalt); the worker
	// count does not participate in the key because parallel results are
	// identical for every worker count.
	Parallel int

	// Energy enables per-component energy accounting: a built-in preset
	// name (energy.PresetNames), "auto" to compose the preset matching
	// the run's cpu/mem_sys parameters, or a path to a JSON model file.
	// The resolved model's content hash salts the cache key, so editing
	// a model file or changing presets re-keys every affected run.
	Energy string
}

// Results captures what a finished run produced.
type Results struct {
	Outcome     string  // workload-specific: "success", "kernel-panic", ...
	SimSeconds  float64 // simulated time
	Insts       uint64
	Stats       map[string]float64
	Console     string
	ConfigINI   string // rendered system configuration (config.ini)
	StatsHash   string // file-store hash of the archived stats.txt
	ConsoleHash string // file-store hash of the archived console log
	ConfigHash  string // file-store hash of the archived config.ini
	ResumedFrom string // checkpoint hash this run resumed from, if retried
	FromCache   bool   // result replayed from the simulation cache
	BootClass   string // boot-equivalence class key (hack-back runs)
	SharedBoot  bool   // boot skipped by restoring a boot-class checkpoint
}

// Attempt records one execution of a run — the per-run lifecycle
// history gem5art report uses to surface flaky runs.
type Attempt struct {
	Index       int       // 1-based attempt number
	Start, End  time.Time // wall-clock bounds of the attempt
	Status      Status    // how the attempt ended (Done, Failed, TimedOut)
	Err         string    // the attempt's error, if any
	ResumedFrom string    // checkpoint hash the attempt resumed from
}

// Run is one experiment — "one unique experiment (a single data point)".
// A run may be executed more than once (the fault-tolerance layer
// retries failed attempts); every execution is recorded in Attempts.
type Run struct {
	ID        string
	Mode      string // "fs" or "se"
	Spec      FSSpec
	Status    Status
	Results   *Results
	WallStart time.Time
	WallEnd   time.Time
	Attempts  []Attempt

	mu        sync.Mutex
	ckptHash  string // checkpoint archived by a prior attempt
	ckptClass string // boot-class key that checkpoint was taken under
	cacheKey  string // canonical content key over the run's input closure
	cache     *simcache.Cache
	inject    *faultinject.Injector
	reg       *artifact.Registry
}

// DefaultTimeout matches createFSRun's 15-minute default.
const DefaultTimeout = 15 * time.Minute

// Run-lifecycle telemetry: every legal status transition is counted by
// target state, and published on the process event bus so the status
// daemon's /api/events stream shows sweeps progressing live.
var (
	runTransitions = telemetry.Default.CounterVec("gem5art_run_transitions_total",
		"run status transitions by target state", "to")
	runsCreated = telemetry.Default.Counter("gem5art_runs_created_total",
		"run objects created and recorded in the database")
	staleAttempts = telemetry.Default.Counter("gem5art_run_stale_attempts_total",
		"attempts whose outcome was discarded because a newer attempt superseded them")
)

// publish counts a transition and emits a run-lifecycle event. Callers
// must not hold r.mu (field reads here take it).
func (r *Run) publish(to Status, attempt int, stale bool) {
	runTransitions.With(string(to)).Inc()
	fields := map[string]string{
		"id":      r.ID,
		"name":    r.Spec.Name,
		"status":  string(to),
		"attempt": strconv.Itoa(attempt),
	}
	if stale {
		fields["stale"] = "true"
	}
	telemetry.Bus.Publish("run", fields)
}

// CreateFSRun validates the spec and creates a queued full-system run,
// recording it in the database.
func CreateFSRun(reg *artifact.Registry, spec FSSpec) (*Run, error) {
	r, _, err := CreateFSRunCached(reg, spec, nil)
	return r, err
}

// CreateFSRunCached is CreateFSRun for a launch memoizing through c
// (nil = no cache). When c already holds the run's result, the run is
// created terminal — done, replayed from the cache — by a single
// InsertOne, and replayed reports that there is nothing left to
// execute. Otherwise the run is created queued with c attached.
func CreateFSRunCached(reg *artifact.Registry, spec FSSpec, c *simcache.Cache) (*Run, bool, error) {
	if spec.Timeout == 0 {
		spec.Timeout = DefaultTimeout
	}
	required := map[string]*artifact.Artifact{
		"gem5_artifact":           spec.Gem5Artifact,
		"gem5_git_artifact":       spec.Gem5GitArtifact,
		"run_script_git_artifact": spec.RunScriptGitArtifact,
		"linux_binary_artifact":   spec.LinuxBinaryArtifact,
		"disk_image_artifact":     spec.DiskImageArtifact,
	}
	for field, a := range required {
		if a == nil {
			return nil, false, fmt.Errorf("run: %s: missing %s", spec.Name, field)
		}
	}
	if spec.Gem5Binary == "" || spec.RunScript == "" {
		return nil, false, fmt.Errorf("run: %s: gem5 binary and run script paths are required", spec.Name)
	}
	if _, ok := handler(spec.RunScript); !ok {
		return nil, false, fmt.Errorf("run: %s: no handler for run script %q", spec.Name, spec.RunScript)
	}
	r := &Run{
		ID:     artifact.NewUUID(),
		Mode:   "fs",
		Spec:   spec,
		Status: Queued,
		reg:    reg,
	}
	// A bad energy spec (unknown preset, malformed model file) fails at
	// creation, not mid-sweep.
	if _, err := r.energyModel(); err != nil {
		return nil, false, err
	}
	r.cacheKey = r.computeCacheKey()
	r.cache = c
	replayed := c != nil && r.replay()
	if _, err := reg.DB().Collection(Collection).InsertOne(r.doc()); err != nil {
		return nil, false, fmt.Errorf("run: %s: %w", spec.Name, err)
	}
	runsCreated.Inc()
	// Queued with no attempt yet, or done by its one replayed attempt.
	r.publish(r.Status, len(r.Attempts), false)
	return r, replayed, nil
}

// Command renders the gem5 invocation this run documents, the way
// gem5art constructs the eventual command line.
func (r *Run) Command() string {
	var sb strings.Builder
	sb.WriteString(r.Spec.Gem5Binary)
	sb.WriteString(" -re --outdir=" + r.Spec.Output)
	sb.WriteString(" " + r.Spec.RunScript)
	if r.Mode == "fs" {
		sb.WriteString(" --kernel=" + r.Spec.LinuxBinary)
		sb.WriteString(" --disk=" + r.Spec.DiskImage)
	}
	for _, p := range r.Spec.Params {
		sb.WriteString(" --" + p)
	}
	return sb.String()
}

// Param returns the value of a "key=value" parameter, or def.
func (r *Run) Param(key, def string) string {
	for _, p := range r.Spec.Params {
		k, v, ok := strings.Cut(p, "=")
		if ok && k == key {
			return v
		}
	}
	return def
}

// Execute runs one attempt of the experiment: it dispatches to the run
// script's handler, enforces the timeout, archives results, and updates
// the run's database document. It never returns simulator failures as
// errors — those are outcomes (the run is Done with e.g. a kernel-panic
// outcome); errors mean the run itself could not be performed.
//
// Execute may be called again after a Failed or TimedOut attempt (the
// retry path); each call appends to the run's attempt history. A Done
// run refuses re-execution with a typed *TransitionError, and a stale
// attempt — one that was revoked by a lease expiry and finishes after a
// newer attempt already completed the run — records its history without
// clobbering the completed result.
func (r *Run) Execute(ctx context.Context) error {
	h, ok := handler(r.Spec.RunScript)
	if !ok {
		return fmt.Errorf("run: no handler for %q", r.Spec.RunScript)
	}
	r.mu.Lock()
	if err := r.Status.CanTransition(Running); err != nil {
		r.mu.Unlock()
		return err
	}
	r.Status = Running
	if r.WallStart.IsZero() {
		r.WallStart = time.Now()
	}
	r.Attempts = append(r.Attempts, Attempt{
		Index:       len(r.Attempts) + 1,
		Start:       time.Now(),
		Status:      Running,
		ResumedFrom: r.ckptHash,
	})
	idx := len(r.Attempts) - 1
	r.mu.Unlock()
	// Running lives on the event bus only: the attempt is committed with
	// its outcome, so a queued run writes twice — created and terminal.
	r.publish(Running, idx+1, false)

	ctx, cancel := context.WithTimeout(ctx, r.Spec.Timeout)
	defer cancel()
	type outcome struct {
		res *Results
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			// A panicking handler is a crashed simulation, not a dead
			// experiment: convert it to an error the retry policy can
			// classify.
			if rec := recover(); rec != nil {
				ch <- outcome{nil, fmt.Errorf("run: %s: handler panicked: %v", r.Spec.Name, rec)}
			}
		}()
		res, err := r.runMemoized(h)
		ch <- outcome{res, err}
	}()
	select {
	case <-ctx.Done():
		r.finishAttempt(idx, TimedOut, nil, nil)
		return nil
	case out := <-ch:
		if out.err != nil {
			r.finishAttempt(idx, Failed, &Results{Outcome: "error: " + out.err.Error()}, out.err)
			return out.err
		}
		r.finishAttempt(idx, Done, out.res, nil)
		return nil
	}
}

// finishAttempt closes out attempt idx and, unless the attempt is
// stale, promotes its outcome to the run.
func (r *Run) finishAttempt(idx int, status Status, res *Results, aerr error) {
	r.mu.Lock()
	a := &r.Attempts[idx]
	a.End = time.Now()
	a.Status = status
	if aerr != nil {
		a.Err = aerr.Error()
	}
	// Stale if the run already completed, or a newer attempt superseded
	// this one and this one did not succeed.
	if r.Status == Done || (idx != len(r.Attempts)-1 && status != Done) {
		r.mu.Unlock()
		staleAttempts.Inc()
		r.publish(status, idx+1, true)
		r.update()
		return
	}
	r.WallEnd = a.End
	r.Status = status
	if res != nil {
		r.Results = res
	}
	if status == Done {
		r.archiveLocked()
	}
	r.mu.Unlock()
	r.publish(status, idx+1, false)
	r.update()
}

// SetInjector arms a fault injector consulted at named points inside
// run handlers (e.g. "run.exec", "run.hackback.phase2") — the test hook
// for crash/hang/flaky-run recovery. Call before Execute.
func (r *Run) SetInjector(in *faultinject.Injector) { r.inject = in }

// faultPoint consults the run's injector; a nil injector is free.
func (r *Run) faultPoint(site string) error { return r.inject.Hit(site) }

// RecordCheckpoint publishes the file-store hash of a checkpoint
// archived by the current attempt, tagged with the boot-class key it
// was taken under, so a later attempt can resume from it instead of
// repeating the work (the boot, for an FS run) — but only when the
// retry still belongs to the same boot class.
func (r *Run) RecordCheckpoint(hash, class string) {
	r.mu.Lock()
	r.ckptHash = hash
	r.ckptClass = class
	r.mu.Unlock()
}

// PriorCheckpoint returns the checkpoint archived by an earlier attempt
// (parsed back from the database file store), its hash, and the
// boot-class key it was taken under. The blob is re-hashed against the
// recorded hash before parsing: a corrupted blob fails the restore and
// the caller falls back to a fresh boot.
func (r *Run) PriorCheckpoint() (*cpu.Checkpoint, string, string) {
	r.mu.Lock()
	hash, class := r.ckptHash, r.ckptClass
	r.mu.Unlock()
	if hash == "" {
		return nil, "", ""
	}
	raw, err := r.reg.DB().Files().Get(hash)
	if err != nil {
		return nil, "", ""
	}
	if database.HashBytes(raw) != hash {
		return nil, "", ""
	}
	ck, err := cpu.ParseCheckpoint(raw)
	if err != nil {
		return nil, "", ""
	}
	return ck, hash, class
}

// AttemptHistory returns a copy of the run's attempt records.
func (r *Run) AttemptHistory() []Attempt {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Attempt(nil), r.Attempts...)
}

// StatusNow returns the run's status, safe against concurrent attempts.
func (r *Run) StatusNow() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Status
}

// archiveLocked stores the stats dump and console output as files in
// the database, recording their hashes on the run document. The stats
// dump is rendered in key order, so identical results archive as one
// content-addressed blob. Caller holds r.mu.
func (r *Run) archiveLocked() {
	if r.Results == nil {
		return
	}
	fs := r.reg.DB().Files()
	keys := make([]string, 0, len(r.Results.Stats))
	for k := range r.Results.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var stats strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&stats, "%s %g\n", k, r.Results.Stats[k])
	}
	// Archiving is best-effort: a degraded store loses the artifact copy
	// but not the run's results, which live on the run document. An empty
	// hash on the document is the record that the archive was skipped.
	if stats.Len() > 0 {
		if h, err := fs.Put(r.Spec.Output+"/stats.txt", []byte(stats.String())); err == nil {
			r.Results.StatsHash = h
		}
	}
	if r.Results.Console != "" {
		if h, err := fs.Put(r.Spec.Output+"/system.pc.com_1.device", []byte(r.Results.Console)); err == nil {
			r.Results.ConsoleHash = h
		}
	}
	if r.Results.ConfigINI != "" {
		if h, err := fs.Put(r.Spec.Output+"/config.ini", []byte(r.Results.ConfigINI)); err == nil {
			r.Results.ConfigHash = h
		}
	}
}

// doc renders the run document. The caller holds r.mu or has exclusive
// access (run creation).
func (r *Run) doc() database.Doc {
	d := database.Doc{
		"_id":         r.ID,
		"name":        r.Spec.Name,
		"mode":        r.Mode,
		"status":      string(r.Status),
		"gem5_binary": r.Spec.Gem5Binary,
		"run_script":  r.Spec.RunScript,
		"output":      r.Spec.Output,
		"params":      paramsAny(r.Spec.Params),
		"command":     r.Command(),
		"timeout_sec": r.Spec.Timeout.Seconds(),
		"artifacts": map[string]any{
			"gem5":       idOf(r.Spec.Gem5Artifact),
			"gem5_git":   idOf(r.Spec.Gem5GitArtifact),
			"run_script": idOf(r.Spec.RunScriptGitArtifact),
			"linux":      idOf(r.Spec.LinuxBinaryArtifact),
			"disk":       idOf(r.Spec.DiskImageArtifact),
		},
	}
	if r.Results != nil {
		d["outcome"] = r.Results.Outcome
		d["sim_seconds"] = r.Results.SimSeconds
		d["insts"] = float64(r.Results.Insts)
		d["stats_file"] = r.Results.StatsHash
		d["console_file"] = r.Results.ConsoleHash
		d["config_file"] = r.Results.ConfigHash
		// Energy headline numbers are first-class document fields so
		// analysis can query them without unpacking the stats archive.
		if j, ok := r.Results.Stats["energy.total_joules"]; ok {
			d["energy_joules"] = j
			d["energy_watts"] = r.Results.Stats["energy.avg_watts"]
			d["energy_edp"] = r.Results.Stats["energy.edp"]
		}
	}
	if !r.WallStart.IsZero() && !r.WallEnd.IsZero() {
		d["wall_seconds"] = r.WallEnd.Sub(r.WallStart).Seconds()
	}
	if len(r.Attempts) > 0 {
		atts := make([]any, 0, len(r.Attempts))
		for _, a := range r.Attempts {
			m := map[string]any{"index": a.Index, "status": string(a.Status)}
			if a.Err != "" {
				m["error"] = a.Err
			}
			if a.ResumedFrom != "" {
				m["resumed_from"] = a.ResumedFrom
			}
			if !a.End.IsZero() {
				m["wall_seconds"] = a.End.Sub(a.Start).Seconds()
			}
			atts = append(atts, m)
		}
		d["attempts"] = atts
	}
	if r.ckptHash != "" {
		d["checkpoint_file"] = r.ckptHash
	}
	if r.ckptClass != "" {
		d["checkpoint_class"] = r.ckptClass
	}
	if r.cacheKey != "" {
		d["cache_key"] = r.cacheKey
	}
	if r.Results != nil && r.Results.ResumedFrom != "" {
		d["resumed_from"] = r.Results.ResumedFrom
	}
	if r.Results != nil {
		if r.Results.FromCache {
			d["cache_hit"] = true
		}
		if r.Results.BootClass != "" {
			d["boot_class"] = r.Results.BootClass
		}
		if r.Results.SharedBoot {
			d["shared_boot"] = true
		}
	}
	return d
}

// update persists the run document. It takes r.mu itself; callers must
// not hold it.
func (r *Run) update() {
	r.mu.Lock()
	set := r.doc()
	r.mu.Unlock()
	delete(set, "_id")
	col := r.reg.DB().Collection(Collection)
	if ok, err := col.UpdateOne(database.Doc{"_id": r.ID}, set); err == nil && !ok {
		// The document should always exist; recreate defensively.
		r.mu.Lock()
		d := r.doc()
		r.mu.Unlock()
		_, _ = col.InsertOne(d)
	}
}

func idOf(a *artifact.Artifact) string {
	if a == nil {
		return ""
	}
	return a.ID
}

func paramsAny(ps []string) []any {
	out := make([]any, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

// Find queries run documents.
func Find(db database.Store, filter database.Doc) []database.Doc {
	return db.Collection(Collection).Find(filter)
}
