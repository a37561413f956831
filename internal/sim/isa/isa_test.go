package isa

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// flatMem is a simple map-backed functional memory for tests.
type flatMem map[int64]int64

func (m flatMem) ReadWord(addr int64) int64       { return m[addr] }
func (m flatMem) WriteWord(addr int64, val int64) { m[addr] = val }

// run executes a program functionally to completion, returning final state.
func run(t *testing.T, p *Program, maxSteps int) (*State, flatMem) {
	t.Helper()
	s := &State{}
	mem := flatMem{}
	var res Result
	for i := 0; i < maxSteps; i++ {
		Run(s, p, mem, nil, 1, 0, &res)
		if res.Done {
			return s, mem
		}
	}
	t.Fatalf("program %s did not finish in %d steps", p.Name, maxSteps)
	return nil, nil
}

func asm(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestArithmetic(t *testing.T) {
	p := asm(t, `
		addi x1, x0, 6
		addi x2, x0, 7
		mul  x3, x1, x2     # 42
		add  x4, x3, x1     # 48
		sub  x5, x4, x2     # 41
		div  x6, x3, x2     # 6
		and  x7, x3, x1     # 42 & 6 = 2
		or   x8, x1, x2     # 7
		xor  x9, x1, x2     # 1
		slt  x10, x1, x2    # 1
		sys  exit
	`)
	s, _ := run(t, p, 100)
	want := map[int]int64{3: 42, 4: 48, 5: 41, 6: 6, 7: 2, 8: 7, 9: 1, 10: 1}
	for r, v := range want {
		if s.Regs[r] != v {
			t.Errorf("x%d = %d, want %d", r, s.Regs[r], v)
		}
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	p := asm(t, `
		addi x1, x0, 10
		div  x2, x1, x0
		sys exit
	`)
	s, _ := run(t, p, 10)
	if s.Regs[2] != 0 {
		t.Fatalf("div by zero = %d, want 0", s.Regs[2])
	}
}

func TestX0IsHardwiredZero(t *testing.T) {
	p := asm(t, `
		addi x0, x0, 99
		add  x1, x0, x0
		sys exit
	`)
	s, _ := run(t, p, 10)
	if s.Regs[0] != 0 || s.Regs[1] != 0 {
		t.Fatalf("x0 = %d, x1 = %d; x0 must stay 0", s.Regs[0], s.Regs[1])
	}
}

func TestLoadStore(t *testing.T) {
	p := asm(t, `
		addi x1, x0, 65536   # data base
		addi x2, x0, 1234
		st   x2, 8(x1)
		ld   x3, 8(x1)
		sys exit
	`)
	s, mem := run(t, p, 10)
	if s.Regs[3] != 1234 {
		t.Fatalf("ld returned %d", s.Regs[3])
	}
	if mem[65544] != 1234 {
		t.Fatalf("memory at 65544 = %d", mem[65544])
	}
}

func TestAmoAdd(t *testing.T) {
	p := asm(t, `
		addi x1, x0, 65536
		addi x2, x0, 5
		amoadd x3, x2, (x1)   # x3 = old (0), mem += 5
		amoadd x4, x2, (x1)   # x4 = 5, mem = 10
		sys exit
	`)
	s, mem := run(t, p, 10)
	if s.Regs[3] != 0 || s.Regs[4] != 5 || mem[65536] != 10 {
		t.Fatalf("amoadd: x3=%d x4=%d mem=%d", s.Regs[3], s.Regs[4], mem[65536])
	}
}

func TestLoopWithLabels(t *testing.T) {
	p := asm(t, `
		addi x1, x0, 10      # counter
		addi x2, x0, 0       # sum
	loop:
		add  x2, x2, x1
		addi x1, x1, -1
		bne  x1, x0, loop
		sys exit
	`)
	s, _ := run(t, p, 200)
	if s.Regs[2] != 55 {
		t.Fatalf("sum 10..1 = %d, want 55", s.Regs[2])
	}
}

func TestJalRecordsReturnAddress(t *testing.T) {
	p := asm(t, `
		jal x1, target
		sys exit             # skipped on first pass
	target:
		sys exit
	`)
	s, _ := run(t, p, 10)
	if s.Regs[1] != 1 {
		t.Fatalf("jal link = %d, want 1", s.Regs[1])
	}
	if s.PC != 3 {
		t.Fatalf("final PC = %d", s.PC)
	}
}

func TestSysHandlerReceivesCalls(t *testing.T) {
	p := asm(t, `
		addi x1, x0, 65
		sys print
		sys work_begin
		sys exit
	`)
	var calls []int32
	s := &State{}
	mem := flatMem{}
	var res Result
	for i := 0; i < 10; i++ {
		Run(s, p, mem, func(fn int32, arg int64) bool {
			calls = append(calls, fn)
			if fn == SysPrint && arg != 65 {
				t.Errorf("print arg = %d", arg)
			}
			return fn == SysExit
		}, 1, 0, &res)
		if res.Done {
			break
		}
	}
	if len(calls) != 3 || calls[0] != SysPrint || calls[1] != SysWorkBegin || calls[2] != SysExit {
		t.Fatalf("sys calls = %v", calls)
	}
}

// TestRunRewritesEveryField: Run writes the whole result on every
// call, so nothing of one instruction, of an earlier one in the same
// run, or of whatever the caller's Result held before, leaks into it.
func TestRunRewritesEveryField(t *testing.T) {
	p := asm(t, `
		addi   x1, x0, 65536
		amoadd x2, x1, (x1)
		beq    x0, x0, next
	next:
		add    x3, x1, x1
		sys    exit
	`)
	want := []Result{
		{Inst: p.Insts[0]},
		{Inst: p.Insts[1], MemAddr: 65536, IsWrite: true},
		{Inst: p.Insts[2], Taken: true},
		{Inst: p.Insts[3]},
		{Inst: p.Insts[4], Done: true},
		{Inst: Inst{Op: SYS, Imm: SysExit}, Done: true}, // off the end
	}
	dirty := Result{Inst: Inst{Op: LD}, MemAddr: -1, IsWrite: true, Taken: true, Done: true}
	s, mem := &State{}, flatMem{}
	res := dirty
	for i, w := range want {
		Run(s, p, mem, nil, 1, 0, &res)
		if res != w {
			t.Errorf("step %d: %+v, want %+v", i, res, w)
		}
	}
	// Longer runs: one to the taken branch after the atomic, and one
	// through the rest, which ends at the exit.
	runs := []struct {
		stop ClassSet
		n    int
		want Result
	}{{SetOf(ClassBranch), 3, want[2]}, {0, 2, want[4]}}
	s, mem, res = &State{}, flatMem{}, dirty
	for i, r := range runs {
		if n := Run(s, p, mem, nil, 200, r.stop, &res); n != r.n || res != r.want {
			t.Errorf("run %d: %d insts, %+v; want %d, %+v", i, n, res, r.n, r.want)
		}
	}
}

func TestRunningOffEndIsExit(t *testing.T) {
	p := &Program{Name: "no-exit", Insts: []Inst{{Op: NOP}}}
	s := &State{}
	mem := flatMem{}
	var res Result
	Run(s, p, mem, nil, 1, 0, &res)
	if res.Done {
		t.Fatal("the NOP terminated")
	}
	Run(s, p, mem, nil, 1, 0, &res)
	if !res.Done {
		t.Fatal("running past the end did not terminate")
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic": "frob x1, x2, x3",
		"bad register":     "add x1, x99, x3",
		"missing operand":  "add x1, x2",
		"undefined label":  "beq x1, x2, nowhere",
		"duplicate label":  "a:\nnop\na:\nnop",
		"bad mem operand":  "ld x1, x2",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Assemble("bad", src); err == nil {
				t.Fatalf("assembled invalid source %q", src)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := asm(t, `
		addi x1, x0, 100
	loop:
		addi x1, x1, -1
		bne x1, x0, loop
		sys exit
	`)
	p.DataWords = 777
	bin := Encode(p)
	got, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.DataWords != 777 || len(got.Insts) != len(p.Insts) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range p.Insts {
		if got.Insts[i] != p.Insts[i] {
			t.Fatalf("inst %d: %v != %v", i, got.Insts[i], p.Insts[i])
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := asm(t, "nop\nsys exit")
	bin := Encode(p)
	if _, err := Decode(bin[:3]); err == nil {
		t.Fatal("decoded truncated magic")
	}
	bad := bytes.Clone(bin)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("decoded bad magic")
	}
	// Corrupt an opcode beyond the valid range.
	bad2 := bytes.Clone(bin)
	bad2[len(bad2)-8] = 200
	if _, err := Decode(bad2); err == nil {
		t.Fatal("decoded invalid opcode")
	}
}

func TestInstEncodeDecodeProperty(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Inst{Op: Op(op % uint8(opCount)), Rd: rd % NumRegs, Rs1: rs1 % NumRegs,
			Rs2: rs2 % NumRegs, Imm: imm}
		got, err := DecodeInst(EncodeInst(in))
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := GenSpec{Name: "w", Seed: 42, Iterations: 10, BodyOps: 30,
		Mix: Mix{Load: 0.3, Store: 0.1, MulDiv: 0.1, Branch: 0.1}, FootprintWords: 1024}
	a := generate(spec)
	b := generate(spec)
	if !bytes.Equal(Encode(a), Encode(b)) {
		t.Fatal("same spec produced different programs")
	}
	spec.Seed = 43
	c := generate(spec)
	if bytes.Equal(Encode(a), Encode(c)) {
		t.Fatal("different seed produced identical programs")
	}
}

func TestGeneratedProgramsValidateAndTerminate(t *testing.T) {
	specs := []GenSpec{
		{Name: "alu", Seed: 1, Iterations: 50, BodyOps: 20, FootprintWords: 64},
		{Name: "mem", Seed: 2, Iterations: 50, BodyOps: 20,
			Mix: Mix{Load: 0.5, Store: 0.3}, FootprintWords: 256, StrideWords: 3},
		{Name: "sync", Seed: 3, Iterations: 30, BodyOps: 16,
			Mix: Mix{Atomic: 0.4}, SharedWords: 8, FootprintWords: 64},
		{Name: "branchy", Seed: 4, Iterations: 40, BodyOps: 24,
			Mix: Mix{Branch: 0.5}, FootprintWords: 64},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := Generate(spec)
			if err := Validate(p); err != nil {
				t.Fatal(err)
			}
			s, _ := run(t, p, 1_000_000)
			if s.Regs[regCounter] != 0 {
				t.Fatalf("loop counter ended at %d", s.Regs[regCounter])
			}
		})
	}
}

func TestGeneratedInstructionCountScalesWithIterations(t *testing.T) {
	count := func(iters int64) int {
		p := Generate(GenSpec{Name: "x", Seed: 9, Iterations: iters, BodyOps: 20,
			Mix: Mix{Load: 0.3}, FootprintWords: 128})
		s := &State{}
		mem := flatMem{}
		var res Result
		n := 0
		for {
			Run(s, p, mem, nil, 1, 0, &res)
			n++
			if res.Done {
				return n
			}
		}
	}
	n10, n100 := count(10), count(100)
	ratio := float64(n100) / float64(n10)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("10x iterations scaled executed insts by %.2fx", ratio)
	}
}

func TestValidateCatchesWildBranch(t *testing.T) {
	p := &Program{Name: "wild", Insts: []Inst{{Op: BEQ, Imm: -5}}}
	if err := Validate(p); err == nil {
		t.Fatal("wild branch passed validation")
	}
}

func TestDisassembly(t *testing.T) {
	cases := map[string]Inst{
		"add x1, x2, x3":      {Op: ADD, Rd: 1, Rs1: 2, Rs2: 3},
		"ld x5, 8(x2)":        {Op: LD, Rd: 5, Rs1: 2, Imm: 8},
		"st x4, 16(x1)":       {Op: ST, Rs1: 1, Rs2: 4, Imm: 16},
		"beq x1, x2, -3":      {Op: BEQ, Rs1: 1, Rs2: 2, Imm: -3},
		"amoadd x1, x2, (x3)": {Op: AMOADD, Rd: 1, Rs2: 2, Rs1: 3},
		"sys 0":               {Op: SYS, Imm: SysExit},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestClassification(t *testing.T) {
	if c := (Inst{Op: LD}).Class(); c != ClassLoad {
		t.Error("LD class")
	}
	if !(Inst{Op: AMOADD}).IsMem() {
		t.Error("AMOADD should be mem")
	}
	if !(Inst{Op: JAL}).IsBranch() {
		t.Error("JAL should be branch")
	}
	if (Inst{Op: ADD}).IsMem() || (Inst{Op: ADD}).IsBranch() {
		t.Error("ADD misclassified")
	}
}

// TestGenerateConcurrent fills the program cache from 8 goroutines at
// once, on specs no other test generates, so that under -race a racy
// fill shows. Every result must equal a fresh generation, and every
// caller of one spec must get the same program.
func TestGenerateConcurrent(t *testing.T) {
	specs := make([]GenSpec, 4)
	for i := range specs {
		specs[i] = GenSpec{Name: "concurrent", Seed: 9100 + int64(i), Iterations: 5,
			BodyOps: 24, Mix: Mix{Load: 0.3, Store: 0.1, Atomic: 0.1}, FootprintWords: 256, SharedWords: 4}
	}
	const goroutines = 8
	got := make([][]*Program, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range specs {
				// Half the goroutines walk the specs backwards, so
				// first fills of one spec meet.
				if g%2 == 1 {
					i = len(specs) - 1 - i
				}
				got[g] = append(got[g], Generate(specs[i]))
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, spec := range specs {
		want := generate(spec)
		var first *Program
		for g := range got {
			p := got[g][i]
			if g%2 == 1 {
				p = got[g][len(specs)-1-i]
			}
			if !reflect.DeepEqual(p, want) {
				t.Fatalf("spec %d, goroutine %d: program differs from a fresh generation", i, g)
			}
			if first == nil {
				first = p
			} else if p != first {
				t.Errorf("spec %d: goroutines %d and 0 got different programs", i, g)
			}
		}
	}
}
