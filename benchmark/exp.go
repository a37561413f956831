package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gem5art/internal/analysis"
	"gem5art/internal/core/launch"
	"gem5art/internal/core/run"
	"gem5art/internal/database"
	"gem5art/internal/experiments"
	"gem5art/internal/sim"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/simcache"
	"gem5art/internal/telemetry"
	"gem5art/internal/workloads"
)

// hackbackRuns is the size of the hack-back matrix: one boot class,
// distinct tag=N parameters (the shape of gem5bench's cache suite).
const hackbackRuns = 32

// expRuns is the number of runs one round of the five launches
// records: 60 PARSEC + 480 boot + 58 GPU + 20 energy + 32 hack-back.
const expRuns = 60 + 480 + 58 + 20 + hackbackRuns

// expEnv is one provisioned library environment on disk.
type expEnv struct {
	dir string
	env *experiments.Env
}

func (e *expEnv) close() {
	if e == nil {
		return
	}
	if e.env != nil {
		_ = e.env.DB().Close()
	}
	_ = os.RemoveAll(e.dir)
}

// expLaunches is what exp_cold and exp_warm share: the seed-ordered
// inputs of the five launches and the traced pass's accounting.
type expLaunches struct {
	cfg *config

	apps    []string
	cores   []int
	cells   []kernel.Spec
	gpuApps []string
	kernels []kernel.Version
	cpus    []cpu.Model
	tags    []string

	// Traced-pass state.
	telBefore  map[string]float64
	cacheStats simcache.Stats // summed deltas over the ops
	journal    int64
	disk       int64
}

func newExpLaunches(c *config) *expLaunches {
	l := &expLaunches{
		cfg:     c,
		apps:    permuted(c, "exp/apps", workloads.ParsecAppNames()),
		cores:   permuted(c, "exp/cores", workloads.ParsecCoreCounts),
		cells:   permuted(c, "exp/cells", kernel.Sweep()),
		gpuApps: permuted(c, "exp/gpu", workloads.GPUWorkloadNames()),
		kernels: permuted(c, "exp/kernels", kernel.BootKernels),
		cpus:    permuted(c, "exp/cpus", cpu.AllModels),
	}
	for i := 0; i < hackbackRuns; i++ {
		l.tags = append(l.tags, fmt.Sprintf("tag=%d-%d", c.seed, i))
	}
	return l
}

// newEnv provisions a fresh on-disk Env with the simulation cache set.
func (l *expLaunches) newEnv() (*expEnv, error) {
	dir, err := l.cfg.tempDir("exp-")
	if err != nil {
		return nil, err
	}
	env, err := experiments.NewEnv(dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	env.Cache = simcache.New(env.DB(), simcache.Options{})
	return &expEnv{dir: dir, env: env}, nil
}

// runTotals reads how many runs the store holds as done and the
// instructions they simulated, without copying documents.
func runTotals(db database.Store) (done int, insts float64) {
	col := db.Collection(run.Collection)
	return col.Count(database.Doc{"status": "done"}), col.AggregateKey(nil, "insts").Sum
}

// launches runs the five launches against e and checks what they
// return. It is the timed body of an op; the caller counts the runs.
func (l *expLaunches) launches(p *pass, o opRef, e *experiments.Env) error {
	n := l.cfg.nproc
	step := func(name string, fn func() error) error {
		sp := p.tr.begin(name, o.id, o.span)
		defer p.tr.end(sp)
		return fn()
	}

	if err := step("launch.parsec", func() error {
		st, err := e.RunParsecStudy(n, l.apps, l.cores)
		if err != nil {
			return err
		}
		for _, os := range workloads.OSImages {
			for _, app := range l.apps {
				for _, c := range l.cores {
					if st.Seconds[os.Name][app][c] <= 0 {
						return fmt.Errorf("parsec %s/%s/%d: no result", os.Name, app, c)
					}
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := step("launch.boot", func() error {
		st, err := e.RunBootSweep(n, l.cells)
		if err != nil {
			return err
		}
		for _, s := range l.cells {
			if got, want := st.Outcome[s.String()], string(kernel.Expected(s)); got != want {
				return fmt.Errorf("boot %s: outcome %q, expected %s", s, got, want)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := step("launch.gpu", func() error {
		st, err := e.RunGPUStudy(n, l.gpuApps)
		if err != nil {
			return err
		}
		for _, ticks := range st.Ticks {
			for _, app := range l.gpuApps {
				if ticks[app] <= 0 {
					return fmt.Errorf("gpu %s: no result", app)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := step("launch.energy", func() error {
		st, err := e.RunEnergySweep(n, l.kernels, l.cpus)
		if err != nil {
			return err
		}
		for _, k := range l.kernels {
			for _, c := range l.cpus {
				if st.Joules(k, c) <= 0 {
					return fmt.Errorf("energy %s/%s: no joules", k, c)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// The hack-back matrix goes through launch.Experiment directly, as
	// a launch script would.
	exp := launch.NewExperiment("hackback-matrix", e.Reg, n)
	defer exp.Close()
	exp.SetCache(e.Cache)
	kern := e.Kernels["5.4.49"]
	if err := step("launch.hackback.submit", func() error {
		for i, tag := range l.tags {
			name := fmt.Sprintf("hackback-%d", i)
			if _, err := exp.LaunchFS(run.FSSpec{
				Name:                 name,
				Gem5Binary:           "gem5/build/X86/gem5.opt",
				RunScript:            "configs/run_hackback.py",
				Output:               "results/" + name,
				Gem5Artifact:         e.Gem5,
				Gem5GitArtifact:      e.Gem5Git,
				RunScriptGitArtifact: e.Scripts,
				LinuxBinary:          kern.Path,
				DiskImage:            e.BootDisk.Path,
				LinuxBinaryArtifact:  kern,
				DiskImageArtifact:    e.BootDisk,
				Params: []string{"benchmark=boot-exit", "suite=boot-exit",
					"cpu=TimingSimpleCPU", "num_cpus=1", tag},
				Timeout: 10 * time.Minute,
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return step("launch.hackback.wait", func() error {
		exp.Wait(context.Background())
		for _, r := range exp.Runs() {
			if r.StatusNow() != run.Done {
				return fmt.Errorf("hack-back %s: status %s", r.Spec.Name, r.StatusNow())
			}
		}
		return nil
	})
}

// digestRuns adds every run document in db to the pass's stats digest.
// A run is identified by its family (the run name up to the first
// dash) and its sorted parameters without the hack-back tag: run names
// carry the cell's index in launch order and tags carry the seed, and
// neither may change the digest.
func digestRuns(p *pass, db database.Store) {
	for _, r := range analysis.ExtractRuns(db, nil) {
		family, _, _ := strings.Cut(r.Name, "-")
		var params []string
		for k, v := range r.Params {
			if k != "tag" {
				params = append(params, k+"="+v)
			}
		}
		sort.Strings(params)
		p.stat(family+" "+strings.Join(params, " "), r.Outcome, uint64(r.Insts),
			uint64(r.SimSeconds*float64(sim.TicksPerSecond)+0.5))
	}
}

// report turns the traced pass's deltas into the launch/run/artifact,
// simcache and database figures.
func (l *expLaunches) report(p *pass, e *expEnv) {
	spans := p.tr.all()
	rounds := float64(len(durations(spans, "launch.hackback.wait")))
	if env := durations(spans, "artifact.env_setup"); len(env) > 0 {
		p.layer["artifact.env_setup_ms"] = median(ms(env))
	}
	if rounds > 0 {
		var submit time.Duration
		for _, d := range durations(spans, "launch.hackback.submit") {
			submit += d
		}
		p.layer["launch.submit_us_per_run"] = float64(submit) / float64(time.Microsecond) / (rounds * hackbackRuns)
		p.layer["launch.wait_ms_p50"] = median(ms(durations(spans, "launch.hackback.wait")))
	}

	after := telemetry.Default.Snapshot()
	p.layer["tasks.retries"] = counterDelta(l.telBefore, after, "gem5art_tasks_retries_total", "")
	if p.runs > 0 {
		p.layer["run.busy_ms_per_run"] = 1e3 / float64(p.runs) *
			counterDelta(l.telBefore, after, "gem5art_tasks_job_duration_seconds", "_sum")
	}
	cs := l.cacheStats
	if hits := cs.HitsMemory + cs.HitsPersistent; hits+cs.Misses > 0 {
		p.layer["simcache.hit_ratio"] = float64(hits) / float64(hits+cs.Misses)
	}
	p.layer["simcache.boots"] = float64(cs.Boots)
	p.layer["simcache.boots_shared"] = float64(cs.BootsShared)
	reportDatabase(p, l.telBefore, after, l.journal, l.disk)

	probePool(p, l.cfg)
	probeSimcache(p, e.env)
	probeStore(p, e.env.DB(), run.Collection, "name")
	_ = e.env.DB().Close()
	probeReopen(p, e.dir)
	e.env = nil // closed; expEnv.close only removes the directory now
}

// addCache accumulates b-a of the counters the report uses.
func (l *expLaunches) addCache(a, b simcache.Stats) {
	l.cacheStats.HitsMemory += b.HitsMemory - a.HitsMemory
	l.cacheStats.HitsPersistent += b.HitsPersistent - a.HitsPersistent
	l.cacheStats.Misses += b.Misses - a.Misses
	l.cacheStats.Boots += b.Boots - a.Boots
	l.cacheStats.BootsShared += b.BootsShared - a.BootsShared
}

// expCold is the exp_cold workload: every round provisions a fresh Env
// and runs the five launches against an empty cache.
type expCold struct {
	*expLaunches
	cur *expEnv // the last round's Env, kept for the store probes
}

func setupExpCold(c *config, p *pass) (instance, error) {
	w := &expCold{expLaunches: newExpLaunches(c)}
	// Warm-up: one untimed round.
	warm := newPass(false)
	w.round(warm)
	if warm.failed > 0 {
		w.close()
		return nil, fmt.Errorf("exp_cold warm-up: %s", warm.errs[0])
	}
	if p.traced() {
		w.telBefore = telemetry.Default.Snapshot()
	}
	return w, nil
}

func (w *expCold) round(p *pass) {
	w.cur.close()
	w.cur = nil
	p.op(func(o opRef) (int, uint64, error) {
		sp := p.tr.begin("artifact.env_setup", o.id, o.span)
		e, err := w.newEnv()
		p.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		w.cur = e
		if err := w.launches(p, o, e.env); err != nil {
			return 0, 0, err
		}
		// Reading the totals back is part of the op: a launch script
		// ends by querying its results.
		done, insts := runTotals(e.env.DB())
		if done != expRuns {
			return 0, 0, fmt.Errorf("exp_cold: %d runs done, want %d", done, expRuns)
		}
		return done, uint64(insts), nil
	})
	if w.cur == nil {
		return
	}
	digestRuns(p, w.cur.env.DB())
	if p.traced() {
		w.addCache(simcache.Stats{}, w.cur.env.Cache.Stats())
		total, journal := treeBytes(w.cur.dir)
		w.journal += grown(nil, journal)
		w.disk += total
	}
}

func (w *expCold) finish(p *pass) {
	if w.cur != nil {
		w.report(p, w.cur)
	}
}

func (w *expCold) close() { w.cur.close(); w.cur = nil }

// expWarm is the exp_warm workload: one Env populated cold during
// set-up, then identical relaunches that must all hit the cache.
type expWarm struct {
	*expLaunches
	e *expEnv
}

func setupExpWarm(c *config, p *pass) (instance, error) {
	w := &expWarm{expLaunches: newExpLaunches(c)}
	sp := p.tr.begin("artifact.env_setup", -1, -1)
	e, err := w.newEnv()
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	w.e = e
	// Cold populate, then one warm relaunch as warm-up.
	if err := w.launches(newPass(false), opRef{-1, -1}, e.env); err != nil {
		w.close()
		return nil, fmt.Errorf("exp_warm populate: %w", err)
	}
	// The digest is taken from the populate pass: every relaunch must
	// replay exactly these results.
	digestRuns(p, e.env.DB())
	warm := newPass(false)
	w.round(warm)
	if warm.failed > 0 {
		w.close()
		return nil, fmt.Errorf("exp_warm warm-up: %s", warm.errs[0])
	}
	if p.traced() {
		w.telBefore = telemetry.Default.Snapshot()
	}
	return w, nil
}

func (w *expWarm) round(p *pass) {
	db := w.e.env.DB()
	doneBefore, instsBefore := runTotals(db)
	cacheBefore := w.e.env.Cache.Stats()
	var diskBefore int64
	var journalBefore map[string]int64
	if p.traced() {
		diskBefore, journalBefore = treeBytes(w.e.dir)
	}
	p.op(func(o opRef) (int, uint64, error) {
		if err := w.launches(p, o, w.e.env); err != nil {
			return 0, 0, err
		}
		done, insts := runTotals(db)
		if done-doneBefore != expRuns {
			return 0, 0, fmt.Errorf("exp_warm: %d runs done, want %d", done-doneBefore, expRuns)
		}
		cs := w.e.env.Cache.Stats()
		if boots, misses := cs.Boots-cacheBefore.Boots, cs.Misses-cacheBefore.Misses; boots != 0 || misses != 0 {
			return 0, 0, fmt.Errorf("exp_warm: %d boots and %d cache misses on a warm relaunch", boots, misses)
		}
		return expRuns, uint64(insts - instsBefore), nil
	})
	if p.traced() {
		w.addCache(cacheBefore, w.e.env.Cache.Stats())
		total, journal := treeBytes(w.e.dir)
		w.journal += grown(journalBefore, journal)
		w.disk += total - diskBefore
	}
}

func (w *expWarm) finish(p *pass) { w.report(p, w.e) }

func (w *expWarm) close() { w.e.close(); w.e = nil }
