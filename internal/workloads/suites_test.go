package workloads

import (
	"testing"

	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

func execProgram(t *testing.T, p *isa.Program) cpu.Result {
	t.Helper()
	m := mem.NewClassic(1, mem.ClassicConfig{})
	sys := cpu.NewSystem(cpu.Config{Model: cpu.Timing, Cores: 1}, m)
	sys.LoadProgram(0, p)
	res := sys.Run(0)
	if !res.Finished {
		t.Fatalf("%s did not finish", p.Name)
	}
	return res
}

func TestNPBKernelsAllRun(t *testing.T) {
	for _, k := range NPBKernels {
		p, err := NPBProgram(k, NPBClassS, 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := isa.Validate(p); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		res := execProgram(t, p)
		if res.Insts == 0 {
			t.Fatalf("%s executed nothing", k)
		}
	}
	if _, err := NPBProgram("zz", NPBClassS, 0); err == nil {
		t.Fatal("unknown NPB kernel accepted")
	}
}

func TestNPBClassesScaleWork(t *testing.T) {
	s, err := NPBProgram("cg", NPBClassS, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NPBProgram("cg", NPBClassA, 0)
	if err != nil {
		t.Fatal(err)
	}
	is := execProgram(t, s).Insts
	ia := execProgram(t, a).Insts
	if ia < 3*is {
		t.Fatalf("class A (%d insts) should be ~4x class S (%d)", ia, is)
	}
}

func TestGAPBSKernelsAllRun(t *testing.T) {
	for _, k := range GAPBSKernels {
		p, err := GAPBSProgram(k, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		res := execProgram(t, p)
		if res.Insts == 0 {
			t.Fatalf("%s executed nothing", k)
		}
	}
	if _, err := GAPBSProgram("dijkstra", 1, 0); err == nil {
		t.Fatal("unknown GAPBS kernel accepted")
	}
}

func TestGAPBSIsMemoryBound(t *testing.T) {
	// Graph kernels should have much lower IPC than NPB's ep (compute).
	g, err := GAPBSProgram("bfs", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NPBProgram("ep", NPBClassS, 0)
	if err != nil {
		t.Fatal(err)
	}
	gRes, eRes := execProgram(t, g), execProgram(t, e)
	gIPC := float64(gRes.Insts) / float64(gRes.SimTicks)
	eIPC := float64(eRes.Insts) / float64(eRes.SimTicks)
	if gIPC >= eIPC {
		t.Fatalf("bfs ipc-proxy %.3g not below ep %.3g", gIPC, eIPC)
	}
}

func TestSPECBenchmarksAllRun(t *testing.T) {
	for _, b := range SPECBenchmarks {
		p, err := SPECProgram(b, 0)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		res := execProgram(t, p)
		if res.Insts == 0 {
			t.Fatalf("%s executed nothing", b)
		}
	}
	if _, err := SPECProgram("doom", 0); err == nil {
		t.Fatal("unknown SPEC benchmark accepted")
	}
}

func TestBootExitProgramTerminates(t *testing.T) {
	res := execProgram(t, BootExitProgram())
	if res.Insts == 0 {
		t.Fatalf("boot-exit: %+v", res)
	}
}

func TestSuiteProgramsAreDeterministic(t *testing.T) {
	a, err := NPBProgram("mg", NPBClassS, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NPBProgram("mg", NPBClassS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(isa.Encode(a)) != string(isa.Encode(b)) {
		t.Fatal("NPB program not deterministic")
	}
	c, err := NPBProgram("mg", NPBClassS, 1) // different core
	if err != nil {
		t.Fatal(err)
	}
	if string(isa.Encode(a)) == string(isa.Encode(c)) {
		t.Fatal("different cores should get different streams")
	}
}
