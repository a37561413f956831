package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A workload is one set of inputs the benchmark runs. setup builds the
// system under test (and warms it up); the returned instance runs
// whole rounds of fixed work until the measuring time is used up.
type workload struct {
	name string
	// setup may record spans and layer figures on p (set-up costs that
	// are per-layer metrics, e.g. artifact.env_setup_ms).
	setup func(c *config, p *pass) (instance, error)
}

type instance interface {
	// round performs one fixed unit of work as a sequence of p.op
	// calls. Work per round never depends on the seed, only its order.
	round(p *pass)
	// finish computes the workload's per-layer figures after a traced
	// pass (probes included) and stores them in p.layer.
	finish(p *pass)
	// close stops everything setup started and removes its files.
	close()
}

// config is what one benchmark process was asked to do.
type config struct {
	seed    int64
	seconds float64
	workdir string // scratch space inside the checkout
	nproc   int    // worker/pool capacity under test
}

// rng returns the generator for one use of the seed: the same seed and
// purpose give the same permutation.
func (c *config) rng(purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", c.seed, purpose)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// permuted returns vs in the seed's order for purpose.
func permuted[T any](c *config, purpose string, vs []T) []T {
	out := append([]T(nil), vs...)
	c.rng(purpose).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tempDir makes a fresh directory under the work dir.
func (c *config) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.workdir, prefix)
}

// pass accumulates one measured pass over a workload.
type pass struct {
	tr *tracer // nil = tracing off

	ops    int // attempted
	failed int
	runs   int    // simulation results completed and recorded
	insts  uint64 // simulated CPU instructions + GPU ops
	wall   time.Duration
	cpu    time.Duration
	lat    []time.Duration
	errs   []string // first few failure reasons, for the report
	rounds []roundStat

	// digest lines: "spec|outcome|insts|ticks", one per distinct
	// simulation result. The digest covers the sorted set, so cell
	// order (the seed) and round count do not change it.
	stats map[string]struct{}

	// layer holds the traced pass's per-layer figures by metric name.
	layer map[string]float64
}

// roundStat is what one round added to the pass, plus the process's
// resident-set high-water mark when it ended. Rates are reported as
// medians over rounds, which a burst of interference in one round does
// not move.
type roundStat struct {
	runs  int
	insts uint64
	wall  time.Duration
	cpu   time.Duration
	hwmMB float64
}

func newPass(traced bool) *pass {
	p := &pass{stats: map[string]struct{}{}, layer: map[string]float64{}}
	if traced {
		p.tr = &tracer{}
	}
	return p
}

func (p *pass) traced() bool { return p.tr != nil }

// opRef names the op in flight for the spans recorded inside it: its
// number and its root span.
type opRef struct{ id, span int }

// op times one operation. fn reports how many runs it completed, the
// instructions they simulated, and any error or failed check; an op
// that fails contributes its time but no runs.
func (p *pass) op(fn func(o opRef) (runs int, insts uint64, err error)) {
	id := p.ops
	p.ops++
	root := p.tr.begin("client.op", id, -1)
	c0 := cpuTime()
	t0 := time.Now()
	runs, insts, err := fn(opRef{id, root})
	d := time.Since(t0)
	p.cpu += cpuTime() - c0
	p.tr.end(root)
	p.wall += d
	p.lat = append(p.lat, d)
	if err != nil {
		p.fail(err)
		return
	}
	p.runs += runs
	p.insts += insts
}

// fail counts a failed op (or a failed check on one).
func (p *pass) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// stat adds one simulation result to the digest.
func (p *pass) stat(spec, outcome string, insts, ticks uint64) {
	p.stats[fmt.Sprintf("%s|%s|%d|%d", spec, outcome, insts, ticks)] = struct{}{}
}

// statsDigest is SHA-256 over the sorted result lines: equal digests
// on two commits mean every simulated statistic the workload produces
// is unchanged.
func (p *pass) statsDigest() string {
	lines := make([]string, 0, len(p.stats))
	for l := range p.stats {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// measure runs whole rounds until the timed wall reaches seconds. At
// least one round always runs; the last one may overshoot.
func measure(inst instance, p *pass, seconds float64) {
	budget := time.Duration(seconds * float64(time.Second))
	for p.wall < budget {
		before := *p
		inst.round(p)
		p.rounds = append(p.rounds, roundStat{
			runs:  p.runs - before.runs,
			insts: p.insts - before.insts,
			wall:  p.wall - before.wall,
			cpu:   p.cpu - before.cpu,
			hwmMB: peakRSSMB(),
		})
	}
}

// overRounds is the median over rounds of f, skipping rounds in which
// f is undefined (no runs completed, no time spent).
func (p *pass) overRounds(f func(r roundStat) (float64, bool)) float64 {
	var vs []float64
	for _, r := range p.rounds {
		if v, ok := f(r); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// rssRound is the round after which peak_rss_mb is read: a fixed
// amount of work, so a faster program that fits more rounds (and a
// bigger store) into the run does not look bigger.
const rssRound = 3

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// treeBytes sums regular-file sizes under dir. journal is the part in
// write-ahead journals (*.wal), by path.
func treeBytes(dir string) (total int64, journal map[string]int64) {
	journal = map[string]int64{}
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return nil // files may vanish mid-walk (compaction renames)
		}
		total += info.Size()
		if strings.HasSuffix(path, ".wal") {
			journal[path] = info.Size()
		}
		return nil
	})
	return total, journal
}

// grown sums the per-key increases from before to after. A journal
// that a compaction truncated between the two samples contributes
// nothing for that interval, so the sum is a lower bound on bytes
// appended.
func grown(before, after map[string]int64) int64 {
	var d int64
	for k, v := range after {
		if v > before[k] {
			d += v - before[k]
		}
	}
	return d
}
