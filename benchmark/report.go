package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// value is one metric reading, in the shape the driver's result line
// uses.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's result line: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runReport is everything one run of one workload measured.
type runReport struct {
	result

	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	FailedFrac float64 `json:"failed_frac"`
	// Samples is the number of op latencies behind op_p50_ms.
	Samples int `json:"samples"`
	Runs    int `json:"runs"`
	// StatsDigest is SHA-256 over the sorted simulated results
	// (spec, outcome, instructions, ticks). A change that only speeds
	// the simulator up must leave it unchanged. Validated is false: the
	// repository holds no hardware reference to compare against.
	StatsDigest string      `json:"stats_digest"`
	Validated   bool        `json:"validated"`
	Errors      []string    `json:"errors,omitempty"`
	Layers      []layerTime `json:"layers,omitempty"`
}

// resultLine is the last line of standard output.
func (r *runReport) resultLine() string {
	b, _ := json.Marshal(r.result)
	return string(b)
}

// host is the fingerprint every report carries, so numbers from two
// machines are never compared by accident.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
}

func fingerprint() host {
	h := host{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout (the driver's) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// report is the file -out writes and compare reads: the host and every
// run made, in the order made.
type report struct {
	Host host        `json:"host"`
	Runs []runReport `json:"runs"`
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// runWorkload is one run: set-up (repeated when untraced, for a median
// set-up time), the measured pass, and for a traced run a second,
// traced pass plus the layer probes.
func runWorkload(wl *workload, c *config, traced bool) (*runReport, error) {
	rep := &runReport{Workload: wl.name, Seed: c.seed, Seconds: c.seconds, Traced: traced}
	rep.Metrics = map[string]value{}

	setup := func(p *pass) (instance, time.Duration, error) {
		start := time.Now()
		inst, err := wl.setup(c, p)
		return inst, time.Since(start), err
	}

	if !traced {
		// Set-up is repeated so that setup_s is a median, not one draw:
		// three times, and for a set-up too short to time well, up to
		// nine times or until two seconds have gone into it.
		var setupS []float64
		var total time.Duration
		var inst instance
		var p *pass
		for i := 0; i < 3 || (i < 9 && total < 2*time.Second); i++ {
			if inst != nil {
				inst.close()
			}
			// The pass the last set-up saw is the one measured: a
			// workload may take its digest while setting up.
			p = newPass(false)
			var d time.Duration
			var err error
			if inst, d, err = setup(p); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
			}
			setupS = append(setupS, d.Seconds())
			total += d
		}
		measure(inst, p, c.seconds)
		inst.close()
		fill(rep, p)
		for name, v := range endToEndValues(p, setupS) {
			rep.Metrics[name] = value{v, unitOf(endToEnd, name)}
		}
		return rep, nil
	}

	// Traced: half the time untraced, half traced, so the run costs the
	// same as an untraced one and the two halves give the overhead.
	half := c.seconds / 2
	plain := newPass(false)
	inst, _, err := setup(plain)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	measure(inst, plain, half)
	inst.close()

	p := newPass(true)
	if inst, _, err = setup(p); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
	}
	measure(inst, p, half)
	inst.finish(p)
	inst.close()
	fill(rep, p)
	rep.Attempted += plain.ops
	rep.Failed += plain.failed
	rep.Correct = rep.Failed == 0
	rep.Layers = rollUp(p.tr.all())

	p.layer["client.ops"] = float64(p.ops)
	p.layer["client.op_p90_ms"] = percentile(ms(p.lat), 90)
	p.layer["client.op_max_ms"] = percentile(ms(p.lat), 100)
	if plain.runs > 0 && p.runs > 0 {
		rate := func(r roundStat) (float64, bool) { return float64(r.runs) / r.wall.Seconds(), r.wall > 0 }
		p.layer["client.trace_overhead_pct"] = (plain.overRounds(rate)/p.overRounds(rate) - 1) * 100
	}
	for _, m := range perLayer {
		rep.Metrics[m.name] = value{p.layer[m.name], m.unit}
	}
	// A figure stored under a name the table lacks would vanish from
	// the output: that is a bug in the workload, not a metric of zero.
	for name := range p.layer {
		if unitOf(perLayer, name) == "" {
			return nil, fmt.Errorf("%s: per-layer figure %q is not in the metric table", wl.name, name)
		}
	}
	return rep, nil
}

// endToEndValues computes the end-to-end metrics of an untraced pass.
func endToEndValues(p *pass, setupS []float64) map[string]float64 {
	out := map[string]float64{
		"setup_s": median(setupS),
		"runs_per_s": p.overRounds(func(r roundStat) (float64, bool) {
			return float64(r.runs) / r.wall.Seconds(), r.wall > 0
		}),
		"sim_mips": p.overRounds(func(r roundStat) (float64, bool) {
			return float64(r.insts) / r.wall.Seconds() / 1e6, r.wall > 0
		}),
		"op_p50_ms": median(ms(p.lat)),
		"cpu_ms_per_run": p.overRounds(func(r roundStat) (float64, bool) {
			return float64(r.cpu) / float64(time.Millisecond) / float64(r.runs), r.runs > 0
		}),
		"peak_rss_mb": 0,
	}
	if n := len(p.rounds); n > 0 {
		out["peak_rss_mb"] = p.rounds[min(n, rssRound)-1].hwmMB
	}
	return out
}

// fill copies a pass's counts into the report.
func fill(rep *runReport, p *pass) {
	rep.Attempted = p.ops
	rep.Failed = p.failed
	rep.Correct = p.failed == 0 && p.ops > 0
	if p.ops > 0 {
		rep.FailedFrac = float64(p.failed) / float64(p.ops)
	}
	rep.Samples = len(p.lat)
	rep.Runs = p.runs
	rep.StatsDigest = p.statsDigest()
	rep.Errors = p.errs
}

func unitOf(defs []metricDef, name string) string {
	for _, m := range defs {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// printRun lists every metric of one run by name with its unit.
func printRun(w io.Writer, r *runReport) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed (failed_frac %.4f), %d runs, %d latency samples\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.FailedFrac, r.Runs, r.Samples)
	fmt.Fprintf(w, "  stats_digest %s validated=%v\n", r.StatsDigest, r.Validated)
	for _, m := range defs {
		v := r.Metrics[m.name]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(w, "  %-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
		for _, l := range r.Layers {
			fmt.Fprintf(w, "  %-36s %8d %12.2f %12.2f\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// series collects one metric's values across a report's runs of one
// workload (traced and untraced runs carry different metrics).
func series(rep report, workload, metric string) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if r.Workload != workload {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// printSummary prints median and quartiles per workload and metric.
func printSummary(w io.Writer, rep report) {
	fmt.Fprintf(w, "host: %s, %d CPUs, %s, GOMAXPROCS %d, commit %s\n",
		rep.Host.CPUModel, rep.Host.NumCPU, rep.Host.GoVersion, rep.Host.GOMAXPROCS, rep.Host.Commit)
	for _, wl := range workloadTable {
		first := true
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range defs {
				vs := series(rep, wl.name, m.name)
				if len(vs) == 0 {
					continue
				}
				if first {
					fmt.Fprintf(w, "%s\n  %-36s %3s %14s %14s %14s %8s\n", wl.name,
						"metric", "n", "median", "q1", "q3", "spread")
					first = false
				}
				q1, q3 := quartiles(vs)
				fmt.Fprintf(w, "  %-36s %3d %14.4f %14.4f %14.4f %7.2f%% %s\n",
					m.name, len(vs), median(vs), q1, q3, spread(vs)*100, m.unit)
			}
		}
	}
}

// verdict classifies B against A for one metric. Worse and better mean
// the medians differ by more than the bound in that direction;
// unresolved means either side's own spread is wider than the bound,
// so the comparison cannot tell.
func verdict(m metricDef, a, b []float64) (rel float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	rel = (mb - ma) / ma
	worse := rel
	if m.better == "higher" {
		worse = -rel
	}
	switch {
	case spread(a) > m.bound || spread(b) > m.bound:
		return rel, "unresolved"
	case worse > m.bound:
		return rel, "worse"
	case worse < -m.bound:
		return rel, "better"
	default:
		return rel, "within"
	}
}

// compare prints, per workload and end-to-end metric, both medians,
// the relative difference of B against A, the bound and a verdict. It
// reports whether any metric came out worse, or any run failed.
func compare(w io.Writer, a, b report) (regressed bool) {
	fmt.Fprintf(w, "A: %s, %d CPUs, %s, commit %s\nB: %s, %d CPUs, %s, commit %s\n",
		a.Host.CPUModel, a.Host.NumCPU, a.Host.GoVersion, a.Host.Commit,
		b.Host.CPUModel, b.Host.NumCPU, b.Host.GoVersion, b.Host.Commit)
	fmt.Fprintf(w, "%-10s %-16s %3s %14s %3s %14s %22s %7s  %s\n",
		"workload", "metric", "nA", "median A", "nB", "median B", "B vs A (base A)", "bound", "verdict")
	for _, wl := range workloadTable {
		for _, m := range endToEnd {
			va, vb := series(a, wl.name, m.name), series(b, wl.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rel, v := verdict(m, va, vb)
			if v == "worse" {
				regressed = true
			}
			fmt.Fprintf(w, "%-10s %-16s %3d %14.4f %3d %14.4f %+9.2f%% of %10.4f %6.0f%%  %s\n",
				wl.name, m.name, len(va), median(va), len(vb), median(vb), rel*100, median(va), m.bound*100, v)
		}
		fa, fb := failedFrac(a, wl.name), failedFrac(b, wl.name)
		if fa < 0 || fb < 0 {
			continue
		}
		v := "within"
		if fb > fa {
			v, regressed = "worse", true
		}
		fmt.Fprintf(w, "%-10s %-16s %3s %14.6f %3s %14.6f %22s %7s  %s\n",
			wl.name, "failed_frac", "", fa, "", fb, "", "any", v)
		if da, db := digest(a, wl.name), digest(b, wl.name); da != db || da == "mixed" {
			fmt.Fprintf(w, "%-10s stats_digest differs: A %s, B %s\n", wl.name, da, db)
		}
	}
	return regressed
}

// failedFrac is failed ops over attempted ops across a report's runs
// of one workload, or -1 when the report has none.
func failedFrac(rep report, workload string) float64 {
	var failed, attempted int
	for _, r := range rep.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}

// digest is the stats digest of a report's runs of one workload, or
// "mixed" when they disagree among themselves.
func digest(rep report, workload string) string {
	d := ""
	for _, r := range rep.Runs {
		if r.Workload != workload {
			continue
		}
		if d != "" && r.StatsDigest != d {
			return "mixed"
		}
		d = r.StatsDigest
	}
	return d
}
