package isa

import (
	"fmt"
	"math/rand"
	"sync"
)

// Mix is the fraction of each instruction class in a generated loop body.
// The fractions should sum to <= 1; the remainder becomes plain ALU ops.
type Mix struct {
	MulDiv float64
	Load   float64
	Store  float64
	Atomic float64
	Branch float64 // short forward branches inside the body
}

// GenSpec parameterizes the synthetic program generator. Workload models
// (PARSEC applications, kernel boot phases) are expressed as GenSpecs so
// that the CPU and memory models execute real instruction streams rather
// than closed-form time estimates.
type GenSpec struct {
	Name           string
	Seed           int64
	Iterations     int64 // outer-loop trip count
	BodyOps        int   // instructions per loop body (>= 4)
	Mix            Mix
	FootprintWords int64 // private data working set (rounded up to a power of two)
	StrideWords    int64 // distance between successive accesses
	SharedWords    int64 // shared (AMOADD) region size; 0 disables atomics
}

// Register conventions used by generated code.
const (
	regCounter = 1  // remaining iterations
	regZeroCmp = 2  // always zero (x0 alias kept for clarity)
	regBase    = 10 // data segment base
	regOffset  = 11 // current access offset (bytes)
	regMask    = 12 // footprint mask
	regAddr    = 13 // computed address
	regShared  = 14 // shared region base
	regAcc     = 5  // accumulator
	regTmp     = 6  // scratch
)

func nextPow2(v int64) int64 {
	p := int64(8)
	for p < v {
		p <<= 1
	}
	return p
}

// rngPool recycles Generate's generators: a math/rand source is 4.9 KB,
// and every core of every boot generates a program. Seed resets a
// source fully, so a pooled generator seeded with spec.Seed yields the
// stream rand.NewSource(spec.Seed) does.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// programs memoizes Generate. A program is a pure function of its spec
// and nothing writes one after Generate returns, so every core of every
// boot shares one copy instead of re-seeding a generator and rebuilding
// it. At most maxPrograms specs are held; a full cache starts over.
var programs struct {
	sync.Mutex
	bySpec map[GenSpec]*Program
}

// maxPrograms bounds the program cache: the boot sweep generates 80
// distinct programs, and its cells with the PARSEC ones 300, each under
// 1 KiB.
const maxPrograms = 1024

// Generate builds a deterministic synthetic program from the spec. The
// same spec always yields the same program, which is what makes runs
// recorded by gem5art reproducible. The program is shared with every
// other caller that passes an equal spec: the caller must not modify it.
func Generate(spec GenSpec) *Program {
	programs.Lock()
	p := programs.bySpec[spec]
	programs.Unlock()
	if p != nil {
		return p
	}
	p = generate(spec)
	programs.Lock()
	defer programs.Unlock()
	if q := programs.bySpec[spec]; q != nil {
		return q // another caller generated it meanwhile
	}
	if programs.bySpec == nil || len(programs.bySpec) >= maxPrograms {
		programs.bySpec = make(map[GenSpec]*Program)
	}
	programs.bySpec[spec] = p
	return p
}

// generate is Generate without the cache.
func generate(spec GenSpec) *Program {
	if spec.BodyOps < 4 {
		spec.BodyOps = 4
	}
	if spec.Iterations < 1 {
		spec.Iterations = 1
	}
	if spec.FootprintWords < 8 {
		spec.FootprintWords = 8
	}
	footWords := nextPow2(spec.FootprintWords)
	footBytes := footWords * 8
	stride := spec.StrideWords
	if stride < 1 {
		stride = 1
	}
	rng := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(rng)
	rng.Seed(spec.Seed)

	var insts []Inst
	emit := func(in Inst) { insts = append(insts, in) }

	// Prologue: counter, base pointers, mask, ROI begin.
	emit(Inst{Op: ADDI, Rd: regCounter, Imm: int32(spec.Iterations)})
	emit(Inst{Op: ADDI, Rd: regBase, Imm: int32(DataBase)})
	emit(Inst{Op: ADDI, Rd: regMask, Imm: int32(footBytes - 8)})
	emit(Inst{Op: ADDI, Rd: regShared, Imm: int32(DataBase + footBytes)})
	emit(Inst{Op: ADDI, Rd: regOffset, Imm: 0})
	emit(Inst{Op: SYS, Imm: SysWorkBegin})

	loopTop := int64(len(insts))
	bodyStart := len(insts)
	for len(insts)-bodyStart < spec.BodyOps {
		r := rng.Float64()
		m := spec.Mix
		switch {
		case r < m.Load:
			emit(Inst{Op: ADD, Rd: regAddr, Rs1: regBase, Rs2: regOffset})
			emit(Inst{Op: LD, Rd: regAcc, Rs1: regAddr})
			emit(Inst{Op: ADDI, Rd: regOffset, Rs1: regOffset, Imm: int32(stride * 8)})
			emit(Inst{Op: AND, Rd: regOffset, Rs1: regOffset, Rs2: regMask})
		case r < m.Load+m.Store:
			emit(Inst{Op: ADD, Rd: regAddr, Rs1: regBase, Rs2: regOffset})
			emit(Inst{Op: ST, Rs1: regAddr, Rs2: regAcc})
			emit(Inst{Op: ADDI, Rd: regOffset, Rs1: regOffset, Imm: int32(stride * 8)})
			emit(Inst{Op: AND, Rd: regOffset, Rs1: regOffset, Rs2: regMask})
		case r < m.Load+m.Store+m.Atomic && spec.SharedWords > 0:
			slot := rng.Int63n(spec.SharedWords) * 8
			emit(Inst{Op: ADDI, Rd: regTmp, Rs1: regShared, Imm: int32(slot)})
			emit(Inst{Op: AMOADD, Rd: regAcc, Rs1: regTmp, Rs2: regCounter})
		case r < m.Load+m.Store+m.Atomic+m.MulDiv:
			if rng.Intn(4) == 0 {
				emit(Inst{Op: DIV, Rd: regAcc, Rs1: regAcc, Rs2: regCounter})
			} else {
				emit(Inst{Op: MUL, Rd: regAcc, Rs1: regAcc, Rs2: regCounter})
			}
		case r < m.Load+m.Store+m.Atomic+m.MulDiv+m.Branch:
			// Short forward branch over one ALU op; taken roughly half
			// the time depending on the accumulator parity.
			emit(Inst{Op: ADDI, Rd: regTmp, Rs1: regAcc, Imm: 0})
			emit(Inst{Op: AND, Rd: regTmp, Rs1: regTmp, Rs2: regCounter})
			emit(Inst{Op: BEQ, Rs1: regTmp, Rs2: 0, Imm: 2})
			emit(Inst{Op: ADDI, Rd: regAcc, Rs1: regAcc, Imm: 1})
		default:
			switch rng.Intn(4) {
			case 0:
				emit(Inst{Op: ADD, Rd: regAcc, Rs1: regAcc, Rs2: regCounter})
			case 1:
				emit(Inst{Op: XOR, Rd: regAcc, Rs1: regAcc, Rs2: regOffset})
			case 2:
				emit(Inst{Op: SLT, Rd: regTmp, Rs1: regAcc, Rs2: regCounter})
			default:
				emit(Inst{Op: ADDI, Rd: regAcc, Rs1: regAcc, Imm: 7})
			}
		}
	}
	// Loop control: counter--, branch back while counter != 0.
	emit(Inst{Op: ADDI, Rd: regCounter, Rs1: regCounter, Imm: -1})
	backOff := loopTop - int64(len(insts))
	emit(Inst{Op: BNE, Rs1: regCounter, Rs2: regZeroCmp, Imm: int32(backOff)})
	emit(Inst{Op: SYS, Imm: SysWorkEnd})
	emit(Inst{Op: SYS, Imm: SysExit})

	return &Program{
		Name:      spec.Name,
		Insts:     insts,
		DataWords: footWords + spec.SharedWords + 16,
	}
}

// Validate checks that a generated or decoded program is well-formed:
// every branch lands inside the text section and every opcode is defined.
func Validate(p *Program) error {
	n := int64(len(p.Insts))
	for i, in := range p.Insts {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %s: inst %d has invalid op", p.Name, i)
		}
		if in.IsBranch() {
			tgt := int64(i) + int64(in.Imm)
			if tgt < 0 || tgt > n {
				return fmt.Errorf("isa: %s: inst %d branches to %d (text is %d insts)",
					p.Name, i, tgt, n)
			}
		}
	}
	return nil
}
