package workloads

import (
	"runtime"
	"testing"

	"gem5art/internal/sim/isa"
)

func TestTenParsecApps(t *testing.T) {
	apps := ParsecApps()
	if len(apps) != 10 {
		t.Fatalf("%d PARSEC apps, want 10 (x264, facesim, canneal excluded)", len(apps))
	}
	want := []string{"blackscholes", "bodytrack", "dedup", "ferret", "fluidanimate",
		"freqmine", "raytrace", "streamcluster", "swaptions", "vips"}
	for i, name := range ParsecAppNames() {
		if name != want[i] {
			t.Fatalf("app %d = %s, want %s", i, name, want[i])
		}
	}
	for _, excluded := range []string{"x264", "facesim", "canneal"} {
		if _, err := FindParsec(excluded); err == nil {
			t.Fatalf("%s should be excluded", excluded)
		}
	}
}

func TestProgramsValidate(t *testing.T) {
	for _, app := range ParsecApps() {
		for _, os := range OSImages {
			for _, cores := range ParsecCoreCounts {
				progs := app.Programs(os, cores)
				if len(progs) != cores {
					t.Fatalf("%s: %d programs for %d cores", app.Name, len(progs), cores)
				}
				for _, p := range progs {
					if err := isa.Validate(p); err != nil {
						t.Fatalf("%s: %v", app.Name, err)
					}
				}
			}
		}
	}
}

func TestUbuntu2004ExecutesMoreInstructions(t *testing.T) {
	// §VI-A: "PARSEC running in Ubuntu 20.04 was executing significantly
	// more instructions, but at a higher CPU utilization rate."
	app, err := FindParsec("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	m18, err := ExecParsec(app, Ubuntu1804, 1)
	if err != nil {
		t.Fatal(err)
	}
	m20, err := ExecParsec(app, Ubuntu2004, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m20.Insts <= m18.Insts {
		t.Fatalf("20.04 insts (%d) not above 18.04 (%d)", m20.Insts, m18.Insts)
	}
	if m20.IPC <= m18.IPC {
		t.Fatalf("20.04 IPC (%.3f) not above 18.04 (%.3f)", m20.IPC, m18.IPC)
	}
}

func TestFigure6Shape(t *testing.T) {
	// Applications typically take longer on Ubuntu 18.04, and the gap
	// narrows as cores increase. Assert on the majority rather than every
	// app — the paper's Figure 6 also shows outliers.
	if testing.Short() {
		t.Skip("full 60-run sweep")
	}
	slower1, slowerN := 0, 0
	var gap1, gap8 float64
	for _, app := range ParsecApps() {
		m18c1, err := ExecParsec(app, Ubuntu1804, 1)
		if err != nil {
			t.Fatal(err)
		}
		m20c1, err := ExecParsec(app, Ubuntu2004, 1)
		if err != nil {
			t.Fatal(err)
		}
		m18c8, err := ExecParsec(app, Ubuntu1804, 8)
		if err != nil {
			t.Fatal(err)
		}
		m20c8, err := ExecParsec(app, Ubuntu2004, 8)
		if err != nil {
			t.Fatal(err)
		}
		if m18c1.SimSeconds > m20c1.SimSeconds {
			slower1++
		}
		if m18c8.SimSeconds > m20c8.SimSeconds {
			slowerN++
		}
		gap1 += m18c1.SimSeconds - m20c1.SimSeconds
		gap8 += m18c8.SimSeconds - m20c8.SimSeconds
	}
	if slower1 < 7 {
		t.Errorf("only %d/10 apps slower on 18.04 at 1 core", slower1)
	}
	if gap8 >= gap1 {
		t.Errorf("absolute 18.04-20.04 gap did not narrow with cores: %.6f -> %.6f", gap1, gap8)
	}
}

func TestFigure7Shape(t *testing.T) {
	// 1->8-core speedup is consistent between the OSes, with 20.04
	// slightly ahead on average, notably blackscholes and ferret.
	if testing.Short() {
		t.Skip("full sweep")
	}
	var sum18, sum20 float64
	for _, name := range []string{"blackscholes", "ferret", "dedup", "streamcluster"} {
		app, err := FindParsec(name)
		if err != nil {
			t.Fatal(err)
		}
		speedup := func(os OSImage) float64 {
			m1, err := ExecParsec(app, os, 1)
			if err != nil {
				t.Fatal(err)
			}
			m8, err := ExecParsec(app, os, 8)
			if err != nil {
				t.Fatal(err)
			}
			return m1.SimSeconds / m8.SimSeconds
		}
		s18, s20 := speedup(Ubuntu1804), speedup(Ubuntu2004)
		if s18 < 1.5 || s20 < 1.5 {
			t.Errorf("%s: speedups too low: 18.04=%.2f 20.04=%.2f", name, s18, s20)
		}
		if s18 > 8 || s20 > 8 {
			t.Errorf("%s: superlinear speedup: %.2f / %.2f", name, s18, s20)
		}
		sum18 += s18
		sum20 += s20
	}
	if sum20 <= sum18 {
		t.Errorf("20.04 mean speedup (%.2f) not above 18.04 (%.2f)", sum20/4, sum18/4)
	}
}

func TestSerialFractionLimitsSpeedup(t *testing.T) {
	// dedup (13% serial) must scale worse than swaptions (1% serial).
	sp := func(name string) float64 {
		app, err := FindParsec(name)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := ExecParsec(app, Ubuntu2004, 1)
		if err != nil {
			t.Fatal(err)
		}
		m8, err := ExecParsec(app, Ubuntu2004, 8)
		if err != nil {
			t.Fatal(err)
		}
		return m1.SimSeconds / m8.SimSeconds
	}
	if sp("dedup") >= sp("swaptions") {
		t.Errorf("dedup speedup %.2f >= swaptions %.2f despite 13x serial fraction",
			sp("dedup"), sp("swaptions"))
	}
}

func TestDeterministicMetrics(t *testing.T) {
	app, err := FindParsec("vips")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExecParsec(app, Ubuntu1804, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecParsec(app, Ubuntu1804, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic metrics: %+v vs %+v", a, b)
	}
}

// TestParsecRecyclesMemory pins what an 8-core PARSEC run allocates once
// a finished run has handed its caches and pages back: system
// construction used to allocate 580 KiB per blackscholes run. The least of three
// runs counts, so a collection that empties the pools midway does not.
func TestParsecRecyclesMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	app, err := FindParsec("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := ExecParsec(app, Ubuntu2004, 8); err != nil {
			t.Fatal(err)
		}
	}
	run()
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d KiB per run", least>>10)
	if least > 64<<10 {
		t.Errorf("%d KiB per 8-core PARSEC run, want <= 64 KiB", least>>10)
	}
}
