package experiments

import (
	"runtime"
	"strings"
	"testing"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/simcache"
)

func TestEnvProvisioning(t *testing.T) {
	e, err := NewEnv("")
	if err != nil {
		t.Fatal(err)
	}
	if e.Gem5 == nil || e.Gem5Git == nil || e.BootDisk == nil {
		t.Fatal("missing core artifacts")
	}
	if len(e.Kernels) != 7 {
		t.Fatalf("%d kernels, want 7", len(e.Kernels))
	}
	if len(e.ParsecDisk) != 2 {
		t.Fatalf("%d parsec disks, want 2", len(e.ParsecDisk))
	}
	// Full provenance must be recoverable: the gem5 binary's closure
	// includes its repository.
	closure, err := e.Reg.Closure(e.Gem5)
	if err != nil {
		t.Fatal(err)
	}
	if len(closure) != 2 {
		t.Fatalf("gem5 closure = %d artifacts", len(closure))
	}
}

func TestParsecStudySubset(t *testing.T) {
	e, err := NewEnv("")
	if err != nil {
		t.Fatal(err)
	}
	study, err := e.RunParsecStudy(runtime.NumCPU(), []string{"blackscholes", "dedup"}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range study.Apps {
		for _, os := range []string{"ubuntu-18.04", "ubuntu-20.04"} {
			for _, n := range study.Cores {
				if study.Seconds[os][app][n] <= 0 {
					t.Fatalf("missing datapoint %s/%s/%d", os, app, n)
				}
			}
		}
	}
	// Figure 6 sign for blackscholes: 18.04 slower.
	if study.Diff("blackscholes", 1) <= 0 {
		t.Errorf("blackscholes 1-core diff = %v, want > 0", study.Diff("blackscholes", 1))
	}
	// Figure 7: speedups exist and are sublinear.
	sp := study.Speedup("ubuntu-20.04", "blackscholes", 8)
	if sp < 1.5 || sp > 8 {
		t.Errorf("speedup = %v", sp)
	}
	fig6 := study.RenderFig6()
	if !strings.Contains(fig6, "Figure 6") || !strings.Contains(fig6, "blackscholes") {
		t.Fatalf("fig6 render:\n%s", fig6)
	}
	if !strings.Contains(study.RenderFig7(), "ubuntu-20.04") {
		t.Fatal("fig7 render missing series")
	}
}

func TestBootSweepSubset(t *testing.T) {
	e, err := NewEnv("")
	if err != nil {
		t.Fatal(err)
	}
	cells := []kernel.Spec{
		{Kernel: "5.4.49", CPU: cpu.KVM, Mem: "classic", Cores: 1, Boot: kernel.BootInit},
		{Kernel: "4.4.186", CPU: cpu.O3, Mem: "ruby.MI_example", Cores: 8, Boot: kernel.BootSystemd},
		{Kernel: "5.4.49", CPU: cpu.Atomic, Mem: "ruby.MI_example", Cores: 1, Boot: kernel.BootInit},
	}
	study, err := e.RunBootSweep(2, cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := study.Outcome[cells[0].String()]; got != "success" {
		t.Errorf("kvm cell = %s", got)
	}
	if got := study.Outcome[cells[1].String()]; got != "deadlock" {
		t.Errorf("MI deadlock cell = %s", got)
	}
	if got := study.Outcome[cells[2].String()]; got != "unsupported" {
		t.Errorf("atomic-on-ruby cell = %s", got)
	}
	if !strings.Contains(study.Summary(), "3 cells") {
		t.Fatalf("summary: %s", study.Summary())
	}
}

func TestGPUStudySubset(t *testing.T) {
	e, err := NewEnv("")
	if err != nil {
		t.Fatal(err)
	}
	study, err := e.RunGPUStudy(runtime.NumCPU(), []string{"FAMutex", "MatrixTranspose"})
	if err != nil {
		t.Fatal(err)
	}
	if sp := study.Speedup("FAMutex"); sp > 0.75 || sp <= 0 {
		t.Errorf("FAMutex speedup = %v", sp)
	}
	if sp := study.Speedup("MatrixTranspose"); sp < 1.1 {
		t.Errorf("MatrixTranspose speedup = %v", sp)
	}
	if !strings.Contains(study.RenderFig9(), "Figure 9") {
		t.Fatal("fig9 render")
	}
}

func TestTableRenderers(t *testing.T) {
	t1 := RenderTable1()
	if !strings.Contains(t1, "boot-exit") || !strings.Contains(t1, "hip-samples") {
		t.Fatalf("table 1:\n%s", t1)
	}
	t2 := RenderTable2()
	if !strings.Contains(t2, "TimingSimpleCPU") || !strings.Contains(t2, "simmedium") {
		t.Fatalf("table 2:\n%s", t2)
	}
	t3 := RenderTable3()
	for _, want := range []string{"Number of CUs", "4", "8K per CU", "64 KB per CU"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("table 3 missing %q:\n%s", want, t3)
		}
	}
	t4 := RenderTable4()
	if !strings.Contains(t4, "FAMutex") || !strings.Contains(t4, "NCHW = 100, 3, 256, 256") {
		t.Fatalf("table 4:\n%s", t4)
	}
	if got := strings.Count(t4, "\n"); got != 30 { // title + 29 rows
		t.Fatalf("table 4 rows = %d", got)
	}
}

// TestStudiesReflectOnlyTheirOwnLaunch relaunches each use case on one
// cached Env, narrowed to a subset of the first launch's cells: the
// second study holds exactly the relaunched cells, with the values the
// first launch recorded, and nothing from the first launch leaks in.
func TestStudiesReflectOnlyTheirOwnLaunch(t *testing.T) {
	e, err := NewEnv("")
	if err != nil {
		t.Fatal(err)
	}
	e.Cache = simcache.New(e.DB(), simcache.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	p1, err := e.RunParsecStudy(2, []string{"blackscholes", "dedup"}, []int{1, 2})
	must(err)
	cells := []kernel.Spec{
		{Kernel: "5.4.49", CPU: cpu.KVM, Mem: "classic", Cores: 1, Boot: kernel.BootInit},
		{Kernel: "4.4.186", CPU: cpu.O3, Mem: "ruby.MI_example", Cores: 8, Boot: kernel.BootSystemd},
	}
	b1, err := e.RunBootSweep(2, cells)
	must(err)
	g1, err := e.RunGPUStudy(2, []string{"FAMutex", "MatrixTranspose"})
	must(err)
	en1, err := e.RunEnergySweep(2, []kernel.Version{"4.4.186", "5.4.49"}, []cpu.Model{cpu.Timing, cpu.O3})
	must(err)
	misses := e.Cache.Stats().Misses

	p2, err := e.RunParsecStudy(2, []string{"dedup"}, []int{2})
	must(err)
	for os, apps := range p2.Seconds {
		if len(apps) != 1 || len(apps["dedup"]) != 1 || apps["dedup"][2] != p1.Seconds[os]["dedup"][2] || apps["dedup"][2] <= 0 {
			t.Errorf("parsec %s: %v, want only dedup/2 = %v", os, apps, p1.Seconds[os]["dedup"][2])
		}
	}
	b2, err := e.RunBootSweep(2, cells[1:])
	must(err)
	if want := b1.Outcome[cells[1].String()]; len(b2.Outcome) != 1 || b2.Outcome[cells[1].String()] != want {
		t.Errorf("boot: %v, want only %s = %s", b2.Outcome, cells[1], want)
	}
	g2, err := e.RunGPUStudy(2, []string{"MatrixTranspose"})
	must(err)
	for alloc, ticks := range g2.Ticks {
		if want := g1.Ticks[alloc]["MatrixTranspose"]; len(ticks) != 1 || ticks["MatrixTranspose"] != want {
			t.Errorf("gpu %s: %v, want only MatrixTranspose = %v", alloc, ticks, want)
		}
	}
	kernels, cpus := []kernel.Version{"5.4.49"}, []cpu.Model{cpu.O3}
	en2, err := e.RunEnergySweep(2, kernels, cpus)
	must(err)
	if len(en2.Rows) != len(kernels)*len(cpus) {
		t.Errorf("energy: %d rows, want %d", len(en2.Rows), len(kernels)*len(cpus))
	}
	if got, want := en2.Joules("5.4.49", cpu.O3), en1.Joules("5.4.49", cpu.O3); got != want || got <= 0 {
		t.Errorf("energy 5.4.49/O3: %v J, first launch recorded %v J", got, want)
	}
	if got := e.Cache.Stats().Misses; got != misses {
		t.Errorf("relaunches missed the cache %d times", got-misses)
	}
}

func TestRunsRecordedInDatabase(t *testing.T) {
	e, err := NewEnv("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunGPUStudy(2, []string{"2dshfl"}); err != nil {
		t.Fatal(err)
	}
	runs := e.DB().Collection("runs").Find(database.Doc{"status": "done"})
	if len(runs) != 2 {
		t.Fatalf("%d run documents", len(runs))
	}
	// Every run references artifacts that exist.
	for _, d := range runs {
		arts := d["artifacts"].(map[string]any)
		for field, id := range arts {
			if _, err := e.Reg.Get(id.(string)); err != nil {
				t.Fatalf("run references missing %s artifact: %v", field, err)
			}
		}
	}
	if n := len(artifactNames(e.Reg)); n < 10 {
		t.Fatalf("only %d artifacts registered", n)
	}
}

func artifactNames(reg *artifact.Registry) []string {
	var out []string
	for _, a := range reg.All() {
		out = append(out, a.Name)
	}
	return out
}

func TestShortKernel(t *testing.T) {
	if shortKernel("4.14.134") != "4.14" || shortKernel("5.4.49") != "5.4" {
		t.Fatal("shortKernel")
	}
}

func TestEnergySweepSubset(t *testing.T) {
	e, err := NewEnv("")
	if err != nil {
		t.Fatal(err)
	}
	kernels := []kernel.Version{"4.4.186", "5.4.49"}
	cpus := []cpu.Model{cpu.Timing, cpu.O3}
	study, err := e.RunEnergySweep(2, kernels, cpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(study.Rows))
	}
	for _, r := range study.Rows {
		if r.Joules <= 0 || r.Watts <= 0 || r.EDP <= 0 {
			t.Errorf("%s: joules=%v watts=%v edp=%v", r.Name, r.Joules, r.Watts, r.EDP)
		}
	}
	// O3 dissipates more per instruction and more leakage than Timing,
	// so its average power must be higher; but it also finishes the boot
	// in less simulated time, so its energy-delay product must be lower
	// (race-to-idle).
	joules := func(k kernel.Version, c cpu.Model) (j, w, e float64) {
		for _, r := range study.Rows {
			if r.Params["kernel"] == string(k) && r.Params["cpu"] == string(c) {
				return r.Joules, r.Watts, r.EDP
			}
		}
		return 0, 0, 0
	}
	for _, k := range kernels {
		_, o3W, o3EDP := joules(k, cpu.O3)
		_, tW, tEDP := joules(k, cpu.Timing)
		if o3W <= tW {
			t.Errorf("kernel %s: O3 %v W <= Timing %v W", k, o3W, tW)
		}
		if o3EDP >= tEDP {
			t.Errorf("kernel %s: O3 EDP %v >= Timing EDP %v", k, o3EDP, tEDP)
		}
	}
	if chart := study.JoulesChart(); !strings.Contains(chart, "boot energy") ||
		!strings.Contains(chart, string(cpu.O3)) {
		t.Fatalf("joules chart:\n%s", chart)
	}
	if chart := study.EDPChart(); !strings.Contains(chart, "EDP") {
		t.Fatalf("edp chart:\n%s", chart)
	}
	csv := study.CSV()
	if !strings.Contains(csv, "joules") || !strings.Contains(csv, "O3CPU") {
		t.Fatalf("csv:\n%s", csv)
	}
	if !strings.Contains(study.Summary(), "4 cells") {
		t.Fatalf("summary: %s", study.Summary())
	}
}
