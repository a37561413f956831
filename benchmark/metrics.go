package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list. The tables below are the program's side of that contract;
// TestBenchmarkJSONMatches keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off and defined on every workload.
//
// The time-based bounds are 25 %, not the 10 % the metrics were designed
// for: on the 2-vCPU VM the benchmark was defined on, ten runs of
// unchanged code spread (IQR/median) 6-11 % on every workload, because
// the whole host slows by 10-16 % for minutes at a time (CPU time per
// run rises with wall time). A bound must stay above three times that
// spread to mean anything; compare reports "unresolved" whenever a
// side's own spread exceeds the bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"sim_mips", "MIPS", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_run", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced pass's figures, one layer each. A workload
// that never enters a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"client.ops", "count", "higher", 0},
	{"client.op_p90_ms", "ms", "lower", 0},
	{"client.op_max_ms", "ms", "lower", 0},
	{"client.trace_overhead_pct", "%", "lower", 0},

	{"gateway.submit_ms_p50", "ms", "lower", 0},
	{"gateway.status_ms_p50", "ms", "lower", 0},
	{"gateway.runs_fetch_ms_p50", "ms", "lower", 0},
	{"gateway.result_tail_ms_p50", "ms", "lower", 0},

	{"tasks.queue_wait_ms_p50", "ms", "lower", 0},
	{"tasks.worker_idle_frac", "ratio", "lower", 0},
	{"tasks.dispatch_us_per_job", "us", "lower", 0},
	{"tasks.dispatch_durable_us_per_job", "us", "lower", 0},
	{"tasks.pool_us_per_job", "us", "lower", 0},
	{"tasks.retries", "count", "lower", 0},

	{"artifact.env_setup_ms", "ms", "lower", 0},
	{"launch.submit_us_per_run", "us", "lower", 0},
	{"launch.wait_ms_p50", "ms", "lower", 0},
	{"run.busy_ms_per_run", "ms", "lower", 0},

	{"simcache.hit_ratio", "ratio", "higher", 0},
	{"simcache.key_ns", "ns", "lower", 0},
	{"simcache.lookup_hit_us", "us", "lower", 0},
	{"simcache.lookup_persistent_us", "us", "lower", 0},
	{"simcache.boots", "count", "lower", 0},
	{"simcache.boots_shared", "count", "higher", 0},

	{"sim.mips.kvmCPU", "MIPS", "higher", 0},
	{"sim.mips.AtomicSimpleCPU", "MIPS", "higher", 0},
	{"sim.mips.TimingSimpleCPU", "MIPS", "higher", 0},
	{"sim.mips.O3CPU", "MIPS", "higher", 0},
	{"sim.gpu_mops", "Mops/s", "higher", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"sim.events_per_inst", "ratio", "lower", 0},
	{"sim.queue_ns_per_event", "ns", "lower", 0},
	{"sim.queue_allocs_per_event", "count", "lower", 0},
	{"sim.par1_vs_mono", "ratio", "lower", 0},
	{"sim.parN_speedup", "ratio", "higher", 0},

	{"database.op_ms_per_run", "ms", "lower", 0},
	{"database.ops_per_run", "count", "lower", 0},
	{"database.journal_bytes_per_run", "B", "lower", 0},
	{"database.disk_bytes_per_run", "B", "lower", 0},
	{"database.full_scans_per_run", "count", "lower", 0},
	{"database.index_hits_per_run", "count", "higher", 0},
	{"database.commit_us_p50", "us", "lower", 0},
	{"database.find_indexed_us", "us", "lower", 0},
	{"database.find_scan_us", "us", "lower", 0},
	{"database.reopen_ms", "ms", "lower", 0},
}

// workloadTable lists the workloads in the order -repeat interleaves
// them; BENCHMARK.json and README.md say why each exists.
var workloadTable = []workload{
	{"sim_mono", setupSimMono},
	{"sim_par", setupSimPar},
	{"svc_sweep", setupSvcSweep},
	{"exp_cold", setupExpCold},
	{"exp_warm", setupExpWarm},
}

func findWorkload(name string) *workload {
	for i := range workloadTable {
		if workloadTable[i].name == name {
			return &workloadTable[i]
		}
	}
	return nil
}
