// Package launch implements gem5art's launch-script layer (§IV-E,
// Figure 5): a single place where an experiment's artifacts are
// declared, the cross product of its parameters is enumerated, and the
// resulting run objects are executed asynchronously. "Through this one
// Python script, the entire experiment and the details required to run
// the experiment are documented in one place."
package launch

import (
	"context"
	"fmt"

	"gem5art/internal/core/artifact"
	"gem5art/internal/core/run"
	"gem5art/internal/core/tasks"
	"gem5art/internal/database"
	"gem5art/internal/simcache"
)

// Sweep enumerates a parameter cross product. Axes iterate with the
// last-added axis fastest, matching nested loops in a launch script.
type Sweep struct {
	names  []string
	values [][]string
}

// NewSweep returns an empty sweep (one point with no parameters).
func NewSweep() *Sweep { return &Sweep{} }

// Axis adds a named parameter axis. It returns the sweep for chaining.
func (s *Sweep) Axis(name string, values ...string) *Sweep {
	s.names = append(s.names, name)
	s.values = append(s.values, values)
	return s
}

// Size returns the number of points in the cross product.
func (s *Sweep) Size() int {
	n := 1
	for _, vs := range s.values {
		n *= len(vs)
	}
	return n
}

// Points materializes the cross product in deterministic order.
func (s *Sweep) Points() []map[string]string {
	out := make([]map[string]string, 0, s.Size())
	point := make([]int, len(s.values))
	for {
		m := make(map[string]string, len(s.names))
		for i, name := range s.names {
			m[name] = s.values[i][point[i]]
		}
		out = append(out, m)
		// Odometer increment, last axis fastest.
		i := len(point) - 1
		for ; i >= 0; i-- {
			point[i]++
			if point[i] < len(s.values[i]) {
				break
			}
			point[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Each calls fn for every point.
func (s *Sweep) Each(fn func(p map[string]string)) {
	for _, p := range s.Points() {
		fn(p)
	}
}

// Experiment drives a set of runs through a task pool, mirroring the
// main() of Figure 5.
type Experiment struct {
	Name string
	Reg  *artifact.Registry
	Pool *tasks.Pool

	cache   *simcache.Cache
	futures []*tasks.Future
	runs    []*run.Run
}

// NewExperiment creates an experiment executing on workers parallel
// workers.
func NewExperiment(name string, reg *artifact.Registry, workers int) *Experiment {
	return &Experiment{Name: name, Reg: reg, Pool: tasks.NewPool(workers)}
}

// SetRetryPolicy makes the experiment's pool re-execute runs whose
// failures are classified retryable — gem5art's "rerun failed Celery
// tasks". Each re-execution is recorded in the run's attempt history.
func (e *Experiment) SetRetryPolicy(rp tasks.RetryPolicy) { e.Pool.SetRetryPolicy(rp) }

// SetCache attaches a simulation cache: every run launched afterwards
// memoizes through it (identical runs replay their cached result, and
// hack-back runs share one boot per boot-equivalence class).
func (e *Experiment) SetCache(c *simcache.Cache) { e.cache = c }

// launchBatch caps the runs one LaunchFS commit records. A warm
// relaunch pays one fsync per batch instead of one per run, and the
// cap bounds the documents a commit holds in memory at once.
const launchBatch = 64

// LaunchFS creates a full-system run from each spec and schedules them
// asynchronously (Figure 5's apply_async), returning the runs in spec
// order. Every spec is validated before anything is probed or written,
// so a bad spec launches nothing. The runs are then created in batches
// of at most launchBatch, each recorded by one commit and queued after
// it. A run the attached cache already answers is recorded done on the
// spot and never queued.
func (e *Experiment) LaunchFS(specs ...run.FSSpec) ([]*run.Run, error) {
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]*run.Run, 0, len(specs))
	for len(specs) > 0 {
		batch := specs[:min(len(specs), launchBatch)]
		specs = specs[len(batch):]
		runs, err := run.CreateFSRuns(e.Reg, batch, e.cache)
		if err != nil {
			return nil, err
		}
		for _, r := range runs {
			if r.StatusNow() != run.Done {
				fut, err := e.Pool.ApplyAsync(tasks.TaskFunc{
					Name: r.ID,
					Fn:   r.Execute,
				})
				if err != nil {
					return nil, err
				}
				e.futures = append(e.futures, fut)
			}
			e.runs = append(e.runs, r)
		}
		out = append(out, runs...)
	}
	return out, nil
}

// Wait blocks until every launched run completes. Individual run
// failures are recorded in the database, not returned: a 480-cell sweep
// must not stop because one configuration exposes a simulator bug.
func (e *Experiment) Wait(ctx context.Context) {
	for _, f := range e.futures {
		_ = f.Wait(ctx)
	}
}

// Close releases the pool.
func (e *Experiment) Close() { e.Pool.Close() }

// Runs returns the launched runs in launch order.
func (e *Experiment) Runs() []*run.Run { return e.runs }

// Summary aggregates run statuses and outcomes from the database — the
// "query the database at any time" step of Figure 2. Retried counts
// runs that needed more than one attempt (flaky runs), and Flaky lists
// them; Resumed counts runs that recovered from a prior attempt's
// checkpoint.
type Summary struct {
	Total      int
	ByStatus   map[string]int
	ByOutcome  map[string]int
	Attempts   int // total executions across all runs (>= Total when retries fired)
	Retried    int
	Resumed    int
	Cached     int // runs whose result replayed from the simulation cache
	SharedBoot int // runs that restored a shared boot-class checkpoint
	Flaky      []FlakyRun
}

// FlakyRun is one run that needed more than one attempt, with one line
// per attempt: the per-run history the retry layer persists.
type FlakyRun struct {
	Name, ID string
	Attempts []string
}

// Summarize builds a Summary over all runs in the database.
func Summarize(db database.Store) Summary {
	s := Summary{ByStatus: map[string]int{}, ByOutcome: map[string]int{}}
	for _, d := range db.Collection(run.Collection).Find(nil) {
		s.Total++
		if st, ok := d["status"].(string); ok {
			s.ByStatus[st]++
		}
		if oc, ok := d["outcome"].(string); ok && oc != "" {
			s.ByOutcome[oc]++
		}
		if atts, ok := d["attempts"].([]any); ok {
			s.Attempts += len(atts)
			if len(atts) > 1 {
				s.Retried++
				s.Flaky = append(s.Flaky, flakyRun(d, atts))
			}
		}
		if rf, ok := d["resumed_from"].(string); ok && rf != "" {
			s.Resumed++
		}
		if hit, ok := d["cache_hit"].(bool); ok && hit {
			s.Cached++
		}
		if sb, ok := d["shared_boot"].(bool); ok && sb {
			s.SharedBoot++
		}
	}
	return s
}

// flakyRun renders the attempts of the run document d.
func flakyRun(d database.Doc, atts []any) FlakyRun {
	f := FlakyRun{Name: fmt.Sprint(d["name"]), ID: fmt.Sprint(d["_id"])}
	for _, raw := range atts {
		a, _ := raw.(map[string]any)
		line := fmt.Sprintf("attempt %v: %v", a["index"], a["status"])
		if e, _ := a["error"].(string); e != "" {
			line += " (" + e + ")"
		}
		if rf, _ := a["resumed_from"].(string); rf != "" {
			line += fmt.Sprintf(" [resumed from %.12s]", rf)
		}
		f.Attempts = append(f.Attempts, line)
	}
	return f
}

// String renders the summary for terminals, flagging flaky runs.
func (s Summary) String() string {
	out := fmt.Sprintf("%d runs; status=%v outcome=%v", s.Total, s.ByStatus, s.ByOutcome)
	if s.Retried > 0 {
		out += fmt.Sprintf(" retried=%d attempts=%d", s.Retried, s.Attempts)
	}
	if s.Resumed > 0 {
		out += fmt.Sprintf(" resumed=%d", s.Resumed)
	}
	if s.Cached > 0 {
		out += fmt.Sprintf(" cached=%d", s.Cached)
	}
	if s.SharedBoot > 0 {
		out += fmt.Sprintf(" shared-boot=%d", s.SharedBoot)
	}
	return out
}

// RecordScript registers the launch script's own source as an artifact,
// completing the paper's documentation story: "this script, in addition
// to the database, can be used to communicate to others all necessary
// inputs... for a particular experiment." Returns the script artifact.
func (e *Experiment) RecordScript(path, source string) (*artifact.Artifact, error) {
	return e.Reg.Register(artifact.Options{
		Name:          "launch-" + e.Name,
		Typ:           "launch script",
		Path:          path,
		Command:       "go run " + path,
		Documentation: "launch script for experiment " + e.Name,
		Content:       []byte(source),
	})
}
