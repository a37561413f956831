package kernel

import (
	"runtime"
	"strings"
	"testing"

	"gem5art/internal/sim/cpu"
)

func TestSweepSize(t *testing.T) {
	sweep := Sweep()
	if len(sweep) != 480 {
		t.Fatalf("sweep has %d cells, want 480 (5 kernels x 4 CPUs x 3 mems x 4 core counts x 2 boots)", len(sweep))
	}
	seen := make(map[string]bool)
	for _, s := range sweep {
		key := s.String()
		if seen[key] {
			t.Fatalf("duplicate cell %s", key)
		}
		seen[key] = true
	}
}

// TestFigure8Counts audits the compatibility model against the paper's
// reported O3 numbers: 27 kernel panics, 11 segfaults, 4 deadlocks (all
// MI_example), 16 unexplained timeouts, and roughly 40% success.
func TestFigure8Counts(t *testing.T) {
	counts := map[Outcome]int{}
	o3Counts := map[Outcome]int{}
	for _, s := range Sweep() {
		o := Expected(s)
		counts[o]++
		if s.CPU == cpu.O3 {
			o3Counts[o]++
		}
	}
	if got := o3Counts[KernelPanic]; got != 27 {
		t.Errorf("O3 kernel panics = %d, want 27", got)
	}
	if got := o3Counts[SimCrash]; got != 11 {
		t.Errorf("O3 segfaults = %d, want 11", got)
	}
	if got := o3Counts[Deadlock]; got != 4 {
		t.Errorf("O3 deadlocks = %d, want 4", got)
	}
	if got := o3Counts[Timeout]; got != 16 {
		t.Errorf("O3 timeouts = %d, want 16", got)
	}
	supported := 120 - o3Counts[Unsupported]
	rate := float64(o3Counts[Success]) / float64(supported)
	if rate < 0.30 || rate > 0.50 {
		t.Errorf("O3 success rate = %.2f of supported runs, want ~0.4", rate)
	}
}

func TestDeadlocksOnlyInMIExample(t *testing.T) {
	for _, s := range Sweep() {
		if Expected(s) == Deadlock {
			if s.Mem != "ruby.MI_example" {
				t.Fatalf("deadlock outside MI_example: %s", s)
			}
			if s.CPU != cpu.O3 {
				t.Fatalf("deadlock outside O3: %s", s)
			}
		}
	}
}

func TestKvmAlwaysBoots(t *testing.T) {
	for _, s := range Sweep() {
		if s.CPU == cpu.KVM && Expected(s) != Success {
			t.Fatalf("kvm failed on %s: %s", s, Expected(s))
		}
	}
}

func TestAtomicUnsupportedOnRuby(t *testing.T) {
	for _, s := range Sweep() {
		if s.CPU != cpu.Atomic {
			continue
		}
		want := Success
		if strings.HasPrefix(s.Mem, "ruby") {
			want = Unsupported
		}
		if got := Expected(s); got != want {
			t.Fatalf("atomic on %s = %s, want %s", s, got, want)
		}
	}
}

func TestTimingClassicMulticoreUnsupported(t *testing.T) {
	for _, s := range Sweep() {
		if s.CPU != cpu.Timing {
			continue
		}
		got := Expected(s)
		if s.Mem == "classic" && s.Cores > 1 {
			if got != Unsupported {
				t.Fatalf("timing classic %d-core = %s, want unsupported", s.Cores, got)
			}
		} else if got != Success {
			t.Fatalf("timing on %s = %s, want success", s, got)
		}
	}
}

func TestBootSuccessRunsToCompletion(t *testing.T) {
	s := Spec{Kernel: "5.4.49", CPU: cpu.Timing, Mem: "ruby.MESI_Two_Level",
		Cores: 2, Boot: BootInit}
	res := Boot(s, 0)
	if res.Outcome != Success {
		t.Fatalf("outcome = %s, console %q", res.Outcome, res.Console)
	}
	if res.Insts == 0 || res.SimTicks == 0 {
		t.Fatal("successful boot reported no work")
	}
	if !strings.Contains(res.Console, "m5 exit") {
		t.Fatalf("console = %q", res.Console)
	}
}

func TestBootSystemdSlowerThanInit(t *testing.T) {
	base := Spec{Kernel: "5.4.49", CPU: cpu.Timing, Mem: "classic", Cores: 1}
	init := base
	init.Boot = BootInit
	sysd := base
	sysd.Boot = BootSystemd
	ri := Boot(init, 0)
	rs := Boot(sysd, 0)
	if ri.Outcome != Success || rs.Outcome != Success {
		t.Fatalf("outcomes: %s, %s", ri.Outcome, rs.Outcome)
	}
	if rs.SimTicks <= ri.SimTicks*2 {
		t.Fatalf("systemd boot (%d) should be much slower than init (%d)",
			rs.SimTicks, ri.SimTicks)
	}
}

func TestBootUnsupportedDoesNotSimulate(t *testing.T) {
	res := Boot(Spec{Kernel: "5.4.49", CPU: cpu.Atomic, Mem: "ruby.MI_example",
		Cores: 1, Boot: BootInit}, 0)
	if res.Outcome != Unsupported || res.Insts != 0 {
		t.Fatalf("unsupported boot: %+v", res)
	}
}

func TestBootFailuresProduceDiagnostics(t *testing.T) {
	cases := []struct {
		spec Spec
		want Outcome
		msg  string
	}{
		{Spec{Kernel: "4.4.186", CPU: cpu.O3, Mem: "ruby.MESI_Two_Level", Cores: 2, Boot: BootInit},
			KernelPanic, "Kernel panic"},
		{Spec{Kernel: "4.19.83", CPU: cpu.O3, Mem: "ruby.MESI_Two_Level", Cores: 4, Boot: BootInit},
			SimCrash, "segmentation fault"},
		{Spec{Kernel: "4.14.134", CPU: cpu.O3, Mem: "ruby.MI_example", Cores: 8, Boot: BootSystemd},
			Deadlock, "Deadlock"},
		{Spec{Kernel: "4.19.83", CPU: cpu.O3, Mem: "ruby.MI_example", Cores: 2, Boot: BootInit},
			Timeout, "timeout"},
	}
	for _, tc := range cases {
		res := Boot(tc.spec, 0)
		if res.Outcome != tc.want {
			t.Errorf("%s: outcome = %s, want %s", tc.spec, res.Outcome, tc.want)
			continue
		}
		if !strings.Contains(res.Console, tc.msg) {
			t.Errorf("%s: console %q missing %q", tc.spec, res.Console, tc.msg)
		}
		if res.Insts == 0 {
			t.Errorf("%s: failure should still have executed some instructions", tc.spec)
		}
	}
}

func TestNewerKernelsBootMoreCode(t *testing.T) {
	old := Boot(Spec{Kernel: "4.4.186", CPU: cpu.Atomic, Mem: "classic", Cores: 1, Boot: BootInit}, 0)
	newer := Boot(Spec{Kernel: "5.4.49", CPU: cpu.Atomic, Mem: "classic", Cores: 1, Boot: BootInit}, 0)
	if old.Outcome != Success || newer.Outcome != Success {
		t.Fatal("boots failed")
	}
	if newer.Insts <= old.Insts {
		t.Fatalf("5.4.49 (%d insts) should boot more code than 4.4.186 (%d)",
			newer.Insts, old.Insts)
	}
}

func TestUnknownKernelFallsBack(t *testing.T) {
	// The Ubuntu-image kernels are not in the sweep table but must still
	// produce a defined outcome.
	s := Spec{Kernel: KernelUbuntu2004, CPU: cpu.O3, Mem: "ruby.MESI_Two_Level",
		Cores: 1, Boot: BootInit}
	if got := Expected(s); got != Success {
		t.Fatalf("fallback outcome = %s", got)
	}
}

func TestBootDeterminism(t *testing.T) {
	s := Spec{Kernel: "4.19.83", CPU: cpu.O3, Mem: "ruby.MESI_Two_Level",
		Cores: 1, Boot: BootSystemd}
	a := Boot(s, 0)
	b := Boot(s, 0)
	if a.SimTicks != b.SimTicks || a.Insts != b.Insts || a.Outcome != b.Outcome {
		t.Fatalf("boot not deterministic: %+v vs %+v", a, b)
	}
}

// allocBytes returns the bytes f allocates, by runtime.MemStats
// TotalAlloc, once a first call has filled the memory pools: the least
// of three calls, so a collection that empties the pools midway does not
// count.
func allocBytes(f func()) uint64 {
	f()
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestBootRecyclesMemory pins what a boot allocates once a finished boot
// has handed its caches and pages back: system construction used to
// allocate 451 KiB (1-core O3CPU on Ruby) and 580 KiB (8-core
// TimingSimpleCPU on Ruby) per boot.
func TestBootRecyclesMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, s := range []Spec{
		{Kernel: "4.19.83", CPU: cpu.O3, Mem: "ruby.MESI_Two_Level", Cores: 1, Boot: BootSystemd},
		{Kernel: "5.4.49", CPU: cpu.Timing, Mem: "ruby.MESI_Two_Level", Cores: 8, Boot: BootSystemd},
	} {
		got := allocBytes(func() { Boot(s, 0) })
		t.Logf("%s: %d KiB per boot", s, got>>10)
		if got > 64<<10 {
			t.Errorf("%s: %d KiB per boot, want <= 64 KiB", s, got>>10)
		}
	}
}
