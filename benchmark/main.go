// Command benchmark is the repository's one benchmark: five workloads,
// six bounded end-to-end metrics plus the failed fraction, and a traced
// pass that attributes the time to layers from outside the program.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	benchmark -workload svc_sweep -seed 1            one run, result line last
//	benchmark -workload svc_sweep -seed 1 -trace 1   traced run: per-layer metrics
//	benchmark -repeat 5 -out A.json                  all workloads, interleaved
//	benchmark compare A.json B.json                  verdict per workload x metric
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, each in its own process)")
	seed := fs.Int64("seed", 1, "orders the cells and names the hack-back tags; the work is the same for every seed")
	seconds := fs.Float64("seconds", 15, "measuring time per run; whole rounds are run until it is used up")
	trace := fs.Int("trace", 0, "1 = traced run: half the time untraced, half traced, then the layer probes; prints the per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload, interleaved w1..w5, w1..w5; run r uses seed+r")
	out := fs.String("out", "", "write the full report (host, every run) to this file")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and queues")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *repeat < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}

	if *name != "" && *repeat == 1 {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		c := &config{seed: *seed, seconds: *seconds, workdir: *workdir, nproc: runtime.NumCPU()}
		rep, err := runWorkload(wl, c, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if *out != "" {
			if err := writeReport(*out, report{Host: fingerprint(), Runs: []runReport{*rep}}); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		printRun(os.Stdout, rep)
		fmt.Println(rep.resultLine())
		return 0
	}

	// Several runs: each in a process of its own, so set-up time and
	// peak memory are that run's alone.
	names := []string{*name}
	if *name == "" {
		names = nil
		for _, wl := range workloadTable {
			names = append(names, wl.name)
		}
	}
	rep, err := runMany(names, *seed, *seconds, *trace, *repeat, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printSummary(os.Stdout, rep)
	for _, r := range rep.Runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// runMany re-executes this binary once per (repeat, workload), in that
// nesting, so slow drift of the host spreads over all workloads
// instead of landing on the last one.
func runMany(names []string, seed int64, seconds float64, trace, repeat int, workdir string) (report, error) {
	rep := report{Host: fingerprint()}
	self, err := os.Executable()
	if err != nil {
		return rep, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return rep, err
	}
	tmp, err := os.CreateTemp(workdir, "run-*.json")
	if err != nil {
		return rep, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	for r := 0; r < repeat; r++ {
		for _, name := range names {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed+int64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace),
				"-workdir", workdir, "-out", tmp.Name())
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return rep, fmt.Errorf("%s (repeat %d): %w", name, r, err)
			}
			one, err := readReport(tmp.Name())
			if err != nil {
				return rep, err
			}
			rep.Runs = append(rep.Runs, one.Runs...)
			fmt.Fprintf(os.Stderr, "benchmark: %s repeat %d/%d done\n", name, r+1, repeat)
		}
	}
	return rep, nil
}
