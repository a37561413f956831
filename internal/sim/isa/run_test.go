package isa

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// sysCall is one call a SYS handler received.
type sysCall struct {
	fn  int32
	arg int64
}

// sysLog is a SYS handler's record of its calls. Its handler ends the
// thread on SysExit only, as the CPU models' does.
type sysLog []sysCall

func (l *sysLog) handler() SysHandler {
	return func(fn int32, arg int64) bool {
		*l = append(*l, sysCall{fn, arg})
		return fn == SysExit
	}
}

// interp is one interpreter's side of a comparison: its state, memory,
// SYS calls and last result.
type interp struct {
	s   State
	mem flatMem
	sys sysLog
	res Result
}

// checkAgainstReference runs p from init under Run and under
// refRun side by side, one call each with the same max (from nextMax)
// and stop set, until the thread ends or budget instructions ran, and
// fails at the first call after which the count, the state, the last
// result, the memory image or the SYS calls differ. With nilSys both
// run without a SYS handler.
func checkAgainstReference(t *testing.T, p *Program, init State, stop uint8, nextMax func() int, nilSys bool, budget int) {
	t.Helper()
	got := &interp{s: init, mem: flatMem{}}
	want := &interp{s: init, mem: flatMem{}}
	for call, executed := 0, 0; executed < budget; call++ {
		max := nextMax()
		var gotSys, wantSys SysHandler
		if !nilSys {
			gotSys, wantSys = got.sys.handler(), want.sys.handler()
		}
		gn := Run(&got.s, p, got.mem, gotSys, max, ClassSet(stop), &got.res)
		wn := refRun(&want.s, p, want.mem, wantSys, max, stop, &want.res)
		switch {
		case gn != wn:
			t.Fatalf("%s stop %#08b call %d (max %d): ran %d, reference %d", p.Name, stop, call, max, gn, wn)
		case got.s != want.s:
			t.Fatalf("%s stop %#08b call %d (max %d): state\n%+v\nreference\n%+v", p.Name, stop, call, max, got.s, want.s)
		case got.res != want.res:
			t.Fatalf("%s stop %#08b call %d (max %d): result %+v, reference %+v", p.Name, stop, call, max, got.res, want.res)
		case !maps.Equal(got.mem, want.mem):
			t.Fatalf("%s stop %#08b call %d (max %d): memory %v, reference %v", p.Name, stop, call, max, got.mem, want.mem)
		case !slices.Equal(got.sys, want.sys):
			t.Fatalf("%s stop %#08b call %d (max %d): SYS calls %v, reference %v", p.Name, stop, call, max, got.sys, want.sys)
		}
		executed += gn
		if got.res.Done {
			return
		}
	}
}

// randomSpec draws a generator spec with every instruction class in
// its mix, atomics included.
func randomSpec(rng *rand.Rand) GenSpec {
	mix := Mix{
		Load:   rng.Float64() * 0.3,
		Store:  rng.Float64() * 0.2,
		Atomic: rng.Float64() * 0.15,
		MulDiv: rng.Float64() * 0.15,
		Branch: rng.Float64() * 0.2,
	}
	return GenSpec{
		Name:           "random",
		Seed:           rng.Int63(),
		Iterations:     1 + rng.Int63n(6),
		BodyOps:        4 + rng.Intn(40),
		Mix:            mix,
		FootprintWords: 8 << rng.Intn(8),
		StrideWords:    rng.Int63n(9),
		SharedWords:    rng.Int63n(4),
	}
}

// edgePrograms are hand-assembled cases the generator never emits:
// writes to x0 by every kind of instruction, division by zero and the
// one overflowing quotient, self-branches, branches and jumps off
// either end of the text, SYS calls of every function and an unknown
// one, a SYS exit followed by more code, programs with no exit and with
// no instructions, and negative and unaligned addresses.
var edgePrograms = []struct{ name, src string }{
	{"x0", `
		addi   x0, x0, 99
		add    x1, x0, x0
		lui    x0, 5
		addi   x2, x0, 65536
		st     x2, 0(x2)
		ld     x0, 0(x2)
		amoadd x0, x2, (x2)
		jal    x0, 1
		slt    x0, x0, x2
		mul    x3, x0, x2
		sys    exit
	`},
	{"divide", `
		addi x1, x0, 10
		div  x2, x1, x0
		lui  x3, 1           # 2^12
		mul  x3, x3, x3      # 2^24
		mul  x3, x3, x3      # 2^48
		lui  x4, 8           # 2^15
		mul  x3, x3, x4      # 2^63 wraps to the most negative value
		addi x5, x0, -1
		div  x6, x3, x5
		div  x7, x5, x3
		sub  x8, x0, x3
		slt  x9, x3, x0
		sys  exit
	`},
	{"self_loop", `
		addi x1, x0, 3
		beq  x0, x0, 0
	`},
	{"jump_self", `
		jal x31, 0
	`},
	{"off_end_forward", `
		addi x1, x0, 1
		jal  x2, 5
	`},
	{"off_end_backward", `
		addi x1, x0, 1
		blt  x0, x1, -7
	`},
	{"sys_calls", `
		addi x1, x0, 72
		sys  print
		sys  work_begin
		addi x1, x1, 1
		sys  print
		sys  9
		sys  work_end
		sys  exit
		addi x1, x0, 5
		sys  print
		sys  exit
	`},
	{"no_exit", `
		addi x1, x0, 2
		addi x2, x0, 65536
		st   x1, 0(x2)
		fence
		nop
	`},
	{"addresses", `
		addi   x2, x0, -64
		st     x2, 0(x2)
		ld     x3, 0(x2)
		amoadd x4, x2, (x2)
		addi   x5, x0, 65539
		st     x5, -3(x5)
		ld     x6, 5(x5)
		amoadd x7, x6, (x5)
		ld     x31, 0(x5)
		or     x30, x31, x6
		and    x29, x30, x7
		xor    x28, x29, x5
		bne    x28, x0, 2
		addi   x1, x0, 1
		sys    exit
	`},
	{"branches", `
		addi x1, x0, 5
		addi x2, x0, -3
	loop:
		blt  x2, x1, ahead
		jal  x3, out
	ahead:
		addi x2, x2, 2
		bne  x2, x1, loop
		beq  x0, x0, loop
	out:
		fence
		sys  exit
	`},
}

func edgeProgram(t testing.TB, i int) *Program {
	t.Helper()
	e := edgePrograms[i]
	p, err := Assemble(e.name, e.src)
	if err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	return p
}

// TestRunMatchesReference: the interpreter matches single-stepping the
// reference on generated programs and on the edge cases, under every
// stop set with a max drawn from 1..200 for each call, and under each
// fixed max in 1..200 with a drawn stop set, with and without a SYS
// handler, from zeroed and from random registers.
func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var progs []*Program
	for i := 0; i < 24; i++ {
		progs = append(progs, generate(randomSpec(rng)))
	}
	for i := range edgePrograms {
		progs = append(progs, edgeProgram(t, i))
	}
	progs = append(progs, &Program{Name: "empty"})
	randomMax := func() int { return 1 + rng.Intn(200) }
	for _, p := range progs {
		var init State
		if p.Name != "random" {
			// The edge cases also start from random registers; x0
			// is zero in every state a thread can hold.
			for r := 1; r < NumRegs; r++ {
				init.Regs[r] = rng.Int63n(1<<20) - 1<<19
			}
		}
		for stop := 0; stop < 256; stop++ {
			checkAgainstReference(t, p, State{}, uint8(stop), randomMax, stop%7 == 3, 3000)
			if p.Name != "random" {
				checkAgainstReference(t, p, init, uint8(stop), randomMax, false, 3000)
			}
		}
		for max := 1; max <= 200; max++ {
			fixed := func() int { return max }
			checkAgainstReference(t, p, State{}, uint8(rng.Intn(256)), fixed, false, 3000)
		}
	}
}

// FuzzRun decodes arbitrary bytes as an executable, as the run layer
// does with a fetched binary, without validating it, so branches may
// leave the text; the interpreter must match the reference on it under
// the given stop set and a max of 1 + max%200 per call. The committed
// seeds under testdata/fuzz/FuzzRun are the edge cases of
// TestRunMatchesReference, encoded.
func FuzzRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, stop, max uint8) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		fixed := func() int { return 1 + int(max)%200 }
		checkAgainstReference(t, p, State{}, stop, fixed, false, 20000)
	})
}
