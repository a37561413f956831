// Command gem5bench measures the performance-critical paths of the
// simulation infrastructure and writes machine-readable reports.
//
// Two suites are available:
//
//   - telemetry: times a self-rescheduling event chain with telemetry
//     disabled and enabled. The instrumentation budget is <5% when no
//     scraper is attached — the loop only pays a local increment per
//     event plus one atomic flush per batch, so anything above that
//     indicates a regression on the hot path.
//
//   - storage: times the embedded database's write and lookup paths —
//     journaled insert cost, indexed vs scanned FindOne at 10k
//     documents, and journal-append persistence vs periodic whole-file
//     snapshot rewrites. Indexed lookups must beat scans by at least
//     5x at this size, or the index fast path has regressed.
//
//   - cache: launches a K-run hack-back matrix cold (one shared boot
//     per boot class) and then re-launches it warm through the same
//     simulation cache. The warm launch must replay every run from the
//     cache and finish at least 5x faster, and the cold matrix must
//     perform exactly one boot.
//
//   - gateway: times the same job batch submitted in-process against
//     one submitted through the multi-tenant HTTP gateway (auth,
//     admission, namespaced bookkeeping). The HTTP edge must add less
//     than 5% end-to-end, or the service mode has regressed.
//
//   - parsim: runs the parallel component/port engine on an 8-core
//     O3+Ruby system (fine windows, which stay on one goroutine) and on
//     eight lockstep KVM cores (coarse windows, which reach the worker
//     pool; 1/2/4/8 workers). Results must be bit-identical across
//     worker counts, and min(host CPUs, cores) workers must not be
//     slower than 1 worker on either (>= 0.9x, interleaved repetitions,
//     min against min) — a rule every host can check.
//
//   - energy: runs the parsim configuration with and without the
//     matching energy model attached. The energy stats are read-through
//     formulas — nothing per event — so the with-energy run must stay
//     within a 2% wall-clock budget, and the energy totals must be
//     bit-identical at 1/2/4 workers.
//
//   - scrub: runs the storage suite's journaled insert sweep with and
//     without the background integrity scrubber attached to the same
//     store. Continuous hash/journal verification must stay within a
//     2% wall-clock budget on the write path.
//
// Usage:
//
//	gem5bench [-suite telemetry|storage|cache|gateway|parsim|energy|scrub] [-out FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"gem5art/internal/sim"
	"gem5art/internal/version"
)

// result is the telemetry benchmark report.
type result struct {
	EventsPerRun        int     `json:"events_per_run"`
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op"`     // telemetry disabled
	InstrumentedNsPerOp float64 `json:"instrumented_ns_per_op"` // telemetry enabled
	OverheadPct         float64 `json:"overhead_pct"`           // (instrumented-baseline)/baseline
	ThresholdPct        float64 `json:"threshold_pct"`          // budget from ISSUE: 5%
	Pass                bool    `json:"pass"`                   // overhead within budget
	BaselineTotalNs     int64   `json:"baseline_total_ns"`
	InstrumentedTotalNs int64   `json:"instrumented_total_ns"`
}

// eventChain drives n self-rescheduling events through a fresh queue —
// the minimal hot loop every simulation in this repo runs.
func eventChain(n int) {
	q := sim.NewEventQueue()
	remaining := n
	var step func()
	step = func() {
		remaining--
		if remaining > 0 {
			q.After(1000, step)
		}
	}
	q.After(1000, step)
	q.Run()
}

func measure(events int, enabled bool) testing.BenchmarkResult {
	sim.EnableTelemetry(enabled)
	defer sim.EnableTelemetry(true)
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eventChain(events)
		}
	})
}

func runTelemetry(out string, events int, threshold float64) bool {
	fmt.Printf("benchmarking %d-event chains (telemetry off, then on)...\n", events)
	base := measure(events, false)
	inst := measure(events, true)

	baseNs := float64(base.NsPerOp()) / float64(events)
	instNs := float64(inst.NsPerOp()) / float64(events)
	overhead := (instNs - baseNs) / baseNs * 100

	r := result{
		EventsPerRun:        events,
		BaselineNsPerOp:     baseNs,
		InstrumentedNsPerOp: instNs,
		OverheadPct:         overhead,
		ThresholdPct:        threshold,
		Pass:                overhead < threshold,
		BaselineTotalNs:     base.T.Nanoseconds(),
		InstrumentedTotalNs: inst.T.Nanoseconds(),
	}
	writeReport(out, r)
	fmt.Printf("baseline:     %.2f ns/event\n", baseNs)
	fmt.Printf("instrumented: %.2f ns/event\n", instNs)
	fmt.Printf("overhead:     %.2f%% (budget %.1f%%) -> %s\n", overhead, threshold, verdict(r.Pass))
	fmt.Printf("report written to %s\n", out)
	return r.Pass
}

// writeReport marshals a report to out, exiting on failure.
func writeReport(out string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gem5bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gem5bench:", err)
		os.Exit(1)
	}
}

func main() {
	suite := flag.String("suite", "telemetry", "benchmark suite: telemetry, storage, cache, gateway, parsim, energy, or scrub")
	out := flag.String("out", "", "output file (default BENCH_<suite>.json)")
	events := flag.Int("events", 200_000, "telemetry: events per benchmark iteration")
	threshold := flag.Float64("threshold", 5.0, "telemetry: maximum allowed overhead percent")
	docs := flag.Int("docs", 10_000, "storage: documents per benchmark")
	speedup := flag.Float64("speedup", 5.0, "storage: required indexed-vs-scan FindOne speedup")
	runs := flag.Int("runs", 8, "cache: hack-back runs in the benchmark matrix")
	warmSpeedup := flag.Float64("warm-speedup", 5.0, "cache: required warm-vs-cold launch speedup")
	gwJobs := flag.Int("gateway-jobs", 32, "gateway: jobs per submit-path measurement")
	gwOverhead := flag.Float64("gateway-overhead", 5.0,
		"gateway: maximum allowed HTTP submit-path overhead percent vs in-process")
	parsimIters := flag.Int64("parsim-iters", 1500, "parsim: workload iterations per core (the coarse configuration runs 20x as many)")
	parsimReps := flag.Int("parsim-reps", 5, "parsim: interleaved measurements per worker count (best is kept)")
	parsimSpeedup := flag.Float64("parsim-speedup", 0.9,
		"parsim: required ratio of 1-worker wall time over min(host CPUs, cores)-worker wall time")
	energyIters := flag.Int64("energy-iters", 1500, "energy: workload iterations per core")
	energyReps := flag.Int("energy-reps", 5, "energy: measurement pairs per worker count (best is kept)")
	energyOverhead := flag.Float64("energy-overhead", 2.0,
		"energy: maximum allowed wall-clock overhead percent with the model attached")
	scrubOverhead := flag.Float64("scrub-overhead", 2.0,
		"scrub: maximum allowed insert-sweep overhead percent with the scrubber running")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("gem5bench", version.String())
		return
	}

	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	var pass bool
	switch *suite {
	case "telemetry":
		pass = runTelemetry(*out, *events, *threshold)
	case "storage":
		pass = runStorage(*out, *docs, *speedup)
	case "cache":
		pass = runCache(*out, *runs, *warmSpeedup)
	case "gateway":
		pass = runGatewayBench(*out, *gwJobs, *gwOverhead)
	case "parsim":
		pass = runParsim(*out, *parsimIters, *parsimReps, *parsimSpeedup)
	case "energy":
		pass = runEnergyBench(*out, *energyIters, *energyReps, *energyOverhead)
	case "scrub":
		pass = runScrubBench(*out, *docs, *scrubOverhead)
	default:
		fmt.Fprintf(os.Stderr, "gem5bench: unknown suite %q\n", *suite)
		os.Exit(2)
	}
	if !pass {
		os.Exit(1)
	}
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
