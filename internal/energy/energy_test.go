package energy

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gem5art/internal/sim"
)

// testModel is a two-component model with one counter the group will
// not provide, exercising the unmatched-counter path.
func testModel() *Model {
	return &Model{
		Name: "test",
		Components: []Component{
			{
				Name:    "core",
				Dynamic: map[string]float64{"insts": 100, "mispredicts": 400},
				StaticW: 2.0,
			},
			{
				Name:          "mem",
				Dynamic:       map[string]float64{"dram.reqs": 20_000, "not.a.stat": 7},
				StaticW:       1.0,
				StaticWPerGHz: 0.5,
			},
		},
	}
}

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestAttachComputesEnergy(t *testing.T) {
	g := sim.NewStatGroup()
	ticks := g.Scalar("sim_ticks", "ticks")
	insts := g.Scalar("insts", "insts")
	mispred := g.Scalar("mispredicts", "mispredicts")
	extra := sim.NewStatGroup()
	dram := extra.Scalar("dram.reqs", "dram")

	unmatched := Attach(g, testModel(), AttachOptions{FreqHz: 2_000_000_000}, extra)
	if len(unmatched) != 1 || unmatched[0] != "mem:not.a.stat" {
		t.Fatalf("unmatched = %v, want [mem:not.a.stat]", unmatched)
	}

	// One simulated millisecond of activity.
	ticks.Set(float64(sim.TicksPerSecond) / 1000)
	insts.Set(1_000_000)
	mispred.Set(10_000)
	dram.Set(5_000)

	v := g.Values()
	coreDyn := (1_000_000*100 + 10_000*400) / 1e12
	coreStatic := 2.0 * 1e-3
	memDyn := 5_000 * 20_000 / 1e12
	memStatic := (1.0 + 0.5*2.0) * 1e-3
	total := coreDyn + coreStatic + memDyn + memStatic

	almost(t, "core.dynamic", v["energy.core.dynamic_joules"], coreDyn)
	almost(t, "core.static", v["energy.core.static_joules"], coreStatic)
	almost(t, "core.joules", v["energy.core.joules"], coreDyn+coreStatic)
	almost(t, "core.watts", v["energy.core.avg_watts"], (coreDyn+coreStatic)/1e-3)
	almost(t, "mem.joules", v["energy.mem.joules"], memDyn+memStatic)
	almost(t, "total", v["energy.total_joules"], total)
	almost(t, "watts", v["energy.avg_watts"], total/1e-3)
	almost(t, "edp", v["energy.edp"], total*1e-3)

	// Read-through: advancing a counter changes the next read with no
	// explicit recompute step.
	insts.Add(1_000_000)
	almost(t, "core.dynamic after",
		g.Lookup("energy.core.dynamic_joules").Value(), coreDyn+100*1_000_000/1e12)

	// The stats appear in the gem5-style dump.
	dump := g.Dump()
	for _, want := range []string{"energy.total_joules", "energy.avg_watts", "energy.edp",
		"energy.core.joules", "energy.mem.joules"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %s", want)
		}
	}
}

func TestAttachZeroTimeMeansZeroWatts(t *testing.T) {
	g := sim.NewStatGroup()
	Attach(g, testModel(), AttachOptions{}) // no sim_ticks stat at all
	v := g.Values()
	if v["energy.avg_watts"] != 0 || v["energy.edp"] != 0 {
		t.Fatalf("zero sim time should produce 0 W and 0 EDP, got %v / %v",
			v["energy.avg_watts"], v["energy.edp"])
	}
	if v["energy.core.static_joules"] != 0 {
		t.Fatalf("zero sim time should produce zero leakage, got %v",
			v["energy.core.static_joules"])
	}
}

func TestEvaluateMatchesAttach(t *testing.T) {
	g := sim.NewStatGroup()
	g.Scalar("sim_ticks", "ticks").Set(float64(sim.TicksPerSecond) / 1000)
	g.Scalar("insts", "insts").Set(123_456)
	g.Scalar("mispredicts", "mispredicts").Set(789)
	g.Scalar("dram.reqs", "dram").Set(4_321)
	Attach(g, testModel(), AttachOptions{FreqHz: 2_000_000_000})
	live := g.Values()

	flat, err := Evaluate(testModel(), map[string]float64{
		"insts": 123_456, "mispredicts": 789, "dram.reqs": 4_321,
	}, 1e-3, 2_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range flat {
		almost(t, name, live[name], want)
	}
}

func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		mutate func(*Model)
		want   string
	}{
		{func(m *Model) { m.Name = "" }, `field "name"`},
		{func(m *Model) { m.Components = nil }, `field "components"`},
		{func(m *Model) { m.Components[1].Name = "core" }, `components[1].name`},
		{func(m *Model) { m.Components[0].Name = "co re" }, `components[0].name`},
		{func(m *Model) { m.Components[0].Dynamic["insts"] = -1 }, `components[0].dynamic_pj["insts"]`},
		{func(m *Model) { m.Components[0].Dynamic["insts"] = math.NaN() }, `components[0].dynamic_pj["insts"]`},
		{func(m *Model) { m.Components[1].StaticW = math.Inf(1) }, `components[1].static_watts`},
		{func(m *Model) { m.Components[1].StaticWPerGHz = -0.1 }, `components[1].static_watts_per_ghz`},
	}
	for _, c := range cases {
		m := testModel()
		c.mutate(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate() = %v, want error containing %q", err, c.want)
		}
	}
	if err := testModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		m, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if _, ok := Preset("nope"); ok {
		t.Error("unknown preset resolved")
	}

	// auto composes from the run's own configuration.
	m, err := Resolve("auto", "O3CPU", "ruby.MESI_Two_Level")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "o3-ruby" {
		t.Errorf("auto O3+Ruby = %q, want o3-ruby", m.Name)
	}
	if _, err := Resolve("auto", "NotACPU", "classic"); err == nil {
		t.Error("auto with unknown CPU model should fail")
	}
	if _, err := Resolve("definitely-not-a-preset", "O3CPU", "classic"); err == nil ||
		!strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("bad preset error = %v", err)
	}

	// Preset copies are private: mutating one does not leak into the next.
	a, _ := Preset("o3-classic")
	a.Components[0].Dynamic["sim_insts"] = 1
	b, _ := Preset("o3-classic")
	if b.Components[0].Dynamic["sim_insts"] == 1 {
		t.Error("preset mutation leaked into a later copy")
	}
}

// TestPresetCountersExist pins every preset counter name to the stat
// vocabulary the engines actually register, so a stat rename cannot
// silently zero an energy term. The GPU preset is checked against the
// run handler's flat stat keys in the run package's tests.
func TestPresetCountersExist(t *testing.T) {
	known := map[string]bool{
		"sim_insts": true, "system.cpu.branchMispredicts": true,
		"system.l1.hits": true, "system.l1.misses": true,
		"system.l2.hits": true, "system.l2.misses": true, "system.l2.prefetches": true,
		"system.mem.requests": true, "system.mem.atomics": true,
		"ruby.l1.hits": true, "ruby.l1.misses": true,
		"ruby.GETS": true, "ruby.GETX": true,
		"ruby.invalidations": true, "ruby.forwards": true, "ruby.mem_reads": true,
		"gpu_ops": true, "dep_stalls": true, "mem_accesses": true, "atomic_ops": true,
	}
	for _, name := range PresetNames() {
		m, _ := Preset(name)
		for _, c := range m.Components {
			for counter := range c.Dynamic {
				if !known[counter] {
					t.Errorf("preset %s component %s reads unknown counter %q",
						name, c.Name, counter)
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"syntax", "{\"name\": \"x\",\n  \"components\": [}", "line 2:"},
		{"type", "{\"name\": \"x\",\n\"components\": [{\"name\": \"c\",\n\"static_watts\": \"lots\"}]}", "line 3:"},
		{"unknown field", `{"name": "x", "components": [{"name": "c", "static_wattz": 1}]}`, "static_wattz"},
		{"semantic", `{"name": "x", "components": [{"name": "c", "dynamic_pj": {"i": -5}}]}`,
			`components[0].dynamic_pj["i"]`},
		{"trailing", `{"name": "x", "components": [{"name": "c"}]} {"more": 1}`, "unexpected data"},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.src)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Parse error = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	src := `{
  "name": "custom-soc",
  "components": [
    {"name": "core", "dynamic_pj": {"sim_insts": 50}, "static_watts": 0.7},
    {"name": "dram", "dynamic_pj": {"system.mem.requests": 18000}}
  ]
}
`
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "custom-soc" || len(m.Components) != 2 {
		t.Fatalf("loaded %+v", m)
	}
	// Resolve treats paths as files.
	if _, err := Resolve(path, "O3CPU", "classic"); err != nil {
		t.Fatalf("Resolve(path) = %v", err)
	}
	// Missing files name the path.
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("Load of missing file should fail")
	}
}

func TestSaltStableAndSensitive(t *testing.T) {
	a := testModel().Salt()
	if a != testModel().Salt() {
		t.Fatal("salt is not deterministic")
	}
	m := testModel()
	m.Components[0].Dynamic["insts"] = 101
	if m.Salt() == a {
		t.Error("coefficient edit did not change the salt")
	}
	m2 := testModel()
	m2.Components[1].StaticW = 1.5
	if m2.Salt() == a {
		t.Error("leakage edit did not change the salt")
	}
}
