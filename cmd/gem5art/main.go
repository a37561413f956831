// Command gem5art drives the framework end-to-end: it reproduces the
// paper's three use cases, inspects the database, and can distribute
// boot jobs to gem5worker processes over TCP.
//
// Usage:
//
//	gem5art parsec  [-db DIR] [-workers N] [-quick]
//	gem5art boot    [-db DIR] [-workers N] [-quick]
//	gem5art gpu     [-db DIR] [-workers N] [-quick]
//	gem5art energy  [-db DIR] [-workers N] [-quick]
//	gem5art tables
//	gem5art summary -db DIR
//	gem5art artifacts -db DIR
//	gem5art distribute [-listen ADDR]   (then start gem5worker)
//	gem5art distribute -shards 4 -db DIR -metrics-addr 127.0.0.1:7788
//	                                       (workers join with gem5worker -resolve)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gem5art/internal/core/launch"
	"gem5art/internal/core/run"
	"gem5art/internal/core/tasks"
	"gem5art/internal/core/tasks/shard"
	"gem5art/internal/database"
	"gem5art/internal/experiments"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/simcache"
	"gem5art/internal/statusd"
	"gem5art/internal/telemetry"
	"gem5art/internal/version"
	"gem5art/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "parsec":
		err = useCase(os.Args[2:], runParsec)
	case "boot":
		err = useCase(os.Args[2:], runBoot)
	case "gpu":
		err = useCase(os.Args[2:], runGPU)
	case "energy":
		err = useCase(os.Args[2:], runEnergy)
	case "tables":
		fmt.Print(experiments.RenderTable1())
		fmt.Println()
		fmt.Print(experiments.RenderTable2())
		fmt.Println()
		fmt.Print(experiments.RenderTable3())
		fmt.Println()
		fmt.Print(experiments.RenderTable4())
	case "summary":
		err = summaryCmd(os.Args[2:])
	case "artifacts":
		err = artifactsCmd(os.Args[2:])
	case "report":
		err = reportCmd(os.Stdout, os.Args[2:])
	case "distribute":
		err = distributeCmd(os.Args[2:])
	case "submit":
		err = submitCmd(os.Args[2:])
	case "version", "-version", "--version":
		fmt.Println("gem5art", version.String())
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gem5art:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gem5art <parsec|boot|gpu|energy|tables|report|summary|artifacts|distribute|submit|version> [flags]`)
	os.Exit(2)
}

type caseOpts struct {
	env     *experiments.Env
	workers int
	quick   bool
}

func useCase(args []string, fn func(caseOpts) error) error {
	fs := flag.NewFlagSet("usecase", flag.ExitOnError)
	dbDir := fs.String("db", "", "database directory (default: in-memory)")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel simulations")
	quick := fs.Bool("quick", false, "run a reduced sweep")
	retries := fs.Int("retries", 1, "attempts per run (>1 retries transient failures with backoff)")
	cacheOn := fs.Bool("cache", true,
		"memoize identical runs and share boot checkpoints through the simulation cache")
	noCache := fs.Bool("no-cache", false, "disable the simulation cache (overrides -cache)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve the status/metrics daemon on this address while the sweep runs (e.g. 127.0.0.1:7788)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := experiments.NewEnv(*dbDir)
	if err != nil {
		return err
	}
	defer env.DB().Close()
	if *cacheOn && !*noCache {
		env.Cache = simcache.New(env.DB(), simcache.Options{})
	}
	if *metricsAddr != "" {
		sd := statusd.New(env.DB())
		sd.Cache = env.Cache
		bound, _, err := statusd.ListenAndServe(*metricsAddr, sd)
		if err != nil {
			return err
		}
		fmt.Printf("status daemon on http://%s (/metrics, /api/runs, /api/cache, /api/events)\n", bound)
	}
	if *retries > 1 {
		rp := tasks.DefaultRetryPolicy()
		rp.MaxAttempts = *retries
		env.Retry = rp
	}
	start := time.Now()
	if err := fn(caseOpts{env: env, workers: *workers, quick: *quick}); err != nil {
		return err
	}
	fmt.Printf("\ncompleted in %v; %s%s%s\n", time.Since(start).Round(time.Millisecond),
		launch.Summarize(env.DB()), telemetryTotals(), cacheTotals(env.Cache))
	return nil
}

// cacheTotals renders the simulation cache's hit/miss line for the
// end-of-sweep summary. Empty when the cache is off or untouched.
func cacheTotals(c *simcache.Cache) string {
	if c == nil {
		return ""
	}
	st := c.Stats()
	if st.HitsMemory+st.HitsPersistent+st.Misses+st.Boots+st.BootsShared == 0 {
		return ""
	}
	return fmt.Sprintf(" cache[hits=%d misses=%d dedup=%d boots=%d shared_boots=%d]",
		st.HitsMemory+st.HitsPersistent, st.Misses, st.Dedups, st.Boots, st.BootsShared)
}

// telemetryTotals renders the process-wide retry/revocation counters for
// the end-of-sweep line, so fault-tolerance activity is visible without
// scraping /metrics. Empty when nothing fired.
func telemetryTotals() string {
	snap := telemetry.Default.Snapshot()
	out := ""
	for _, c := range []struct{ name, label string }{
		{"gem5art_tasks_retries_total", "pool_retries"},
		{"gem5art_broker_retries_total", "broker_retries"},
		{"gem5art_broker_lease_revocations_total", "lease_revocations"},
		{"gem5art_broker_worker_revocations_total", "worker_revocations"},
		{"gem5art_run_stale_attempts_total", "stale_attempts"},
	} {
		if v := snap[c.name]; v > 0 {
			out += fmt.Sprintf(" %s=%g", c.label, v)
		}
	}
	return out
}

func runParsec(o caseOpts) error {
	apps, cores := []string(nil), []int(nil)
	if o.quick {
		apps, cores = []string{"blackscholes", "dedup"}, []int{1, 8}
	}
	study, err := o.env.RunParsecStudy(o.workers, apps, cores)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable2())
	fmt.Println()
	fmt.Print(study.RenderFig6())
	fmt.Println()
	fmt.Print(study.RenderFig7())
	return nil
}

func runBoot(o caseOpts) error {
	cells := kernel.Sweep()
	if o.quick {
		cells = cells[:60]
	}
	study, err := o.env.RunBootSweep(o.workers, cells)
	if err != nil {
		return err
	}
	fmt.Print(study.RenderFig8())
	fmt.Println(study.Summary())
	return nil
}

func runGPU(o caseOpts) error {
	apps := []string(nil)
	if o.quick {
		apps = []string{"FAMutex", "fwd_pool", "MatrixTranspose", "2dshfl"}
	}
	study, err := o.env.RunGPUStudy(o.workers, apps)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable3())
	fmt.Println()
	fmt.Print(study.RenderFig9())
	return nil
}

// runEnergy is use case 4: boot energy across OS versions × CPU models
// with the auto-selected energy model attached.
func runEnergy(o caseOpts) error {
	kernels, cpus := []kernel.Version(nil), []cpu.Model(nil)
	if o.quick {
		kernels = kernel.BootKernels[:2]
		cpus = []cpu.Model{cpu.Timing, cpu.O3}
	}
	study, err := o.env.RunEnergySweep(o.workers, kernels, cpus)
	if err != nil {
		return err
	}
	fmt.Print(study.JoulesChart())
	fmt.Println()
	fmt.Print(study.EDPChart())
	fmt.Println(study.Summary())
	return nil
}

func summaryCmd(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	dbDir := fs.String("db", "", "database directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := database.Open(*dbDir)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Println(launch.Summarize(db))
	printFlakyRuns(db)
	return nil
}

// printFlakyRuns lists runs that needed more than one attempt, with
// each attempt's status — the per-run history the retry layer persists.
func printFlakyRuns(db database.Store) {
	for _, d := range db.Collection("runs").Find(nil) {
		atts, ok := d["attempts"].([]any)
		if !ok || len(atts) < 2 {
			continue
		}
		fmt.Printf("flaky run %v (%v):\n", d["name"], d["_id"])
		for _, raw := range atts {
			a, _ := raw.(map[string]any)
			line := fmt.Sprintf("  attempt %v: %v", a["index"], a["status"])
			if e, _ := a["error"].(string); e != "" {
				line += " (" + e + ")"
			}
			if rf, _ := a["resumed_from"].(string); rf != "" {
				line += fmt.Sprintf(" [resumed from %.12s]", rf)
			}
			fmt.Println(line)
		}
	}
}

func artifactsCmd(args []string) error {
	fs := flag.NewFlagSet("artifacts", flag.ExitOnError)
	dbDir := fs.String("db", "", "database directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := database.Open(*dbDir)
	if err != nil {
		return err
	}
	defer db.Close()
	docs := db.Collection("artifacts").Find(nil)
	fmt.Printf("%-28s %-18s %-34s %s\n", "NAME", "TYPE", "HASH", "PATH")
	for _, d := range docs {
		fmt.Printf("%-28v %-18v %-34.32v %v\n", d["name"], d["type"], d["hash"], d["path"])
	}
	return nil
}

// distributeCmd demonstrates the Celery-style path: it starts a broker,
// waits for gem5worker connections, fans a job suite out to them, and
// prints the outcomes. The boot suite ships self-contained boot cells;
// the hackback suite boots one shared checkpoint on the launcher and
// the workers restore it — by hash through the status daemon's cache
// endpoint when -metrics-addr is set, inline in the payload otherwise.
func distributeCmd(args []string) error {
	fs := flag.NewFlagSet("distribute", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7733", "broker listen address")
	suite := fs.String("suite", "boot", "job suite to distribute: boot | hackback")
	metricsAddr := fs.String("metrics-addr", "",
		"serve the status/metrics daemon on this address (exposes broker lease state at /api/broker)")
	retries := fs.Int("retries", 3, "attempts per job (1 disables retries)")
	lease := fs.Duration("lease", 30*time.Minute, "per-assignment execution lease (0 disables)")
	hbTimeout := fs.Duration("heartbeat-timeout", 5*time.Second,
		"revoke workers silent for this long (0 disables)")
	dbDir := fs.String("db", "",
		"database directory backing a durable broker queue; rerunning distribute with the same -db resumes a crashed launch instead of restarting it")
	shards := fs.Int("shards", 1,
		"run a sharded control plane: N shard brokers with journal-replicated standbys and automatic failover (requires -db; workers join with gem5worker -resolve)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := database.Open(*dbDir)
	if err != nil {
		return err
	}
	defer db.Close()
	rp := tasks.DefaultRetryPolicy()
	rp.MaxAttempts = *retries
	bopts := tasks.BrokerOptions{
		HeartbeatTimeout: *hbTimeout,
		Lease:            *lease,
		Retry:            rp,
	}

	// The launch submits and collects through one of two control planes:
	// a single broker, or a sharded fleet with replicated standbys.
	var (
		submit  func(tasks.Job)
		results <-chan tasks.JobResult
		broker  *tasks.Broker
		fleet   *shard.Fleet
	)
	if *shards > 1 {
		if *dbDir == "" {
			return fmt.Errorf("-shards %d requires -db: shard queues and their replicas are durable stores", *shards)
		}
		fleet, err = shard.NewFleet(shard.Options{
			Shards: *shards,
			Dir:    filepath.Join(*dbDir, "shards"),
			Broker: bopts,
		})
		if err != nil {
			return err
		}
		defer fleet.Close()
		submit, results = fleet.Submit, fleet.Results()
	} else {
		if *dbDir != "" {
			bopts.DB = db // persist the queue only when the operator names a directory
		}
		broker, err = tasks.NewBrokerWithOptions(*listen, bopts)
		if err != nil {
			return err
		}
		defer broker.Close()
		submit, results = broker.Submit, broker.Results()
	}
	cache := simcache.New(db, simcache.Options{})
	fetchURL := ""
	if *metricsAddr != "" {
		sd := statusd.New(nil)
		sd.Broker = broker
		sd.Fleet = fleet
		sd.Cache = cache
		bound, _, err := statusd.ListenAndServe(*metricsAddr, sd)
		if err != nil {
			return err
		}
		fetchURL = "http://" + bound
		fmt.Printf("status daemon on http://%s (/metrics, /api/broker, /api/shards, /api/cache, /api/events)\n", bound)
	}
	if fleet != nil {
		m := fleet.Map()
		for _, info := range m.Shards {
			fmt.Printf("shard %d primary on %s\n", info.Index, info.Addr)
		}
		if fetchURL != "" {
			fmt.Printf("sharded fleet up (epoch %d); start gem5worker -resolve %s\n", m.Epoch, fetchURL)
		} else {
			fmt.Printf("sharded fleet up (epoch %d); use -metrics-addr so workers can resolve the shard map\n", m.Epoch)
		}
	} else {
		fmt.Printf("broker listening on %s; start gem5worker -broker %s\n", broker.Addr(), broker.Addr())
	}

	var jobs int
	switch *suite {
	case "boot":
		cells := kernel.Sweep()[:40]
		for i, c := range cells {
			payload, err := json.Marshal(map[string]any{
				"kernel": string(c.Kernel), "cpu": string(c.CPU), "mem": c.Mem,
				"cores": c.Cores, "boot": string(c.Boot),
			})
			if err != nil {
				return err
			}
			submit(tasks.Job{ID: fmt.Sprintf("boot-%d", i), Kind: "boot", Payload: payload})
		}
		jobs = len(cells)
	case "hackback":
		// One boot class for the whole matrix: boot once here, ship the
		// checkpoint to every worker.
		class := simcache.BootClass{
			KernelHash: "distributed-kernel",
			DiskHash:   "distributed-disk",
			Cores:      1,
			Mem:        "classic",
		}
		blob, hash, err := run.BootClassCheckpoint(cache, class)
		if err != nil {
			return err
		}
		fmt.Printf("boot class %.12s checkpoint %.12s (%d bytes), shared by all jobs\n",
			class.Key(), hash, len(blob))
		for i, k := range workloads.NPBKernels {
			job := run.HackbackJob{
				Benchmark: k, Suite: "npb", Class: "S",
				Cores: 1, CPU: "TimingSimpleCPU", Mem: "classic",
				CkptHash: hash, FetchURL: fetchURL,
			}
			if fetchURL == "" {
				job.Ckpt = blob // no daemon to fetch from: ship inline
			}
			payload, err := json.Marshal(job)
			if err != nil {
				return err
			}
			submit(tasks.Job{ID: fmt.Sprintf("hackback-%d", i), Kind: "hackback", Payload: payload})
		}
		jobs = len(workloads.NPBKernels)
	default:
		return fmt.Errorf("unknown suite %q (want boot or hackback)", *suite)
	}
	counts := map[string]int{}
	for done := 0; done < jobs; done++ {
		r := <-results
		if r.Err != "" {
			counts["error"]++
			continue
		}
		var out struct {
			Outcome string `json:"outcome"`
		}
		_ = json.Unmarshal(r.Output, &out)
		counts[out.Outcome]++
	}
	fmt.Printf("distributed %d %s jobs; outcomes: %v%s%s\n",
		jobs, *suite, counts, telemetryTotals(), cacheTotals(cache))
	return nil
}
