// Package isa defines the small RISC instruction set executed by the CPU
// models: 32 integer registers, fixed 32-bit instruction words, loads and
// stores, conditional branches, an atomic add for synchronization, and a
// SYS instruction used like gem5's m5ops to signal the simulator (exit,
// work-begin, work-end). It includes an assembler, a binary encoder used
// to produce "benchmark executables" stored on disk images, and a
// deterministic synthetic program generator used by the workload models.
//
// There is one interpreter, Run: it executes a batch of instructions up
// to the next one whose class the caller's timing model must see, and
// describes only that last one. One switch in Run holds the semantics
// of every instruction.
package isa

import "fmt"

// NumRegs is the number of integer registers. x0 is hardwired to zero.
const NumRegs = 32

// Op is an operation code.
type Op uint8

// The instruction set. Keep the order stable: the binary encoding stores
// the Op value directly.
const (
	NOP    Op = iota
	ADD       // rd = rs1 + rs2
	SUB       // rd = rs1 - rs2
	MUL       // rd = rs1 * rs2 (3-cycle latency on O3)
	DIV       // rd = rs1 / rs2 (0 divisor yields 0; 12-cycle latency on O3)
	AND       // rd = rs1 & rs2
	OR        // rd = rs1 | rs2
	XOR       // rd = rs1 ^ rs2
	SLT       // rd = rs1 < rs2 ? 1 : 0
	ADDI      // rd = rs1 + imm
	LUI       // rd = imm << 12
	LD        // rd = mem[rs1 + imm]
	ST        // mem[rs1 + imm] = rs2
	AMOADD    // rd = mem[rs1]; mem[rs1] += rs2 (atomic)
	FENCE     // memory barrier
	BEQ       // if rs1 == rs2 pc += imm
	BNE       // if rs1 != rs2 pc += imm
	BLT       // if rs1 < rs2 pc += imm
	JAL       // rd = pc+1; pc += imm
	SYS       // simulator call; imm selects the function
	opCount
)

// SYS immediates, modeled on gem5's m5ops.
const (
	SysExit      = 0 // end simulation for this hardware thread
	SysWorkBegin = 1 // region-of-interest begin
	SysWorkEnd   = 2 // region-of-interest end
	SysPrint     = 3 // write rs1's low byte to the console
)

var opNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", MUL: "mul", DIV: "div",
	AND: "and", OR: "or", XOR: "xor", SLT: "slt", ADDI: "addi",
	LUI: "lui", LD: "ld", ST: "st", AMOADD: "amoadd", FENCE: "fence",
	BEQ: "beq", BNE: "bne", BLT: "blt", JAL: "jal", SYS: "sys",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether the op is a defined instruction.
func (o Op) Valid() bool { return o < opCount }

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Class buckets instructions for the timing models.
type Class uint8

// Instruction classes.
const (
	ClassALU Class = iota
	ClassMulDiv
	ClassLoad
	ClassStore
	ClassAtomic
	ClassBranch
	ClassSys
	ClassFence
)

// opClass maps every Op value to its timing class. Values past the
// defined ops, which Validate rejects, read as ClassALU.
var opClass = [256]Class{
	NOP: ClassALU, ADD: ClassALU, SUB: ClassALU, AND: ClassALU, OR: ClassALU,
	XOR: ClassALU, SLT: ClassALU, ADDI: ClassALU, LUI: ClassALU,
	MUL: ClassMulDiv, DIV: ClassMulDiv,
	LD: ClassLoad, ST: ClassStore, AMOADD: ClassAtomic,
	BEQ: ClassBranch, BNE: ClassBranch, BLT: ClassBranch, JAL: ClassBranch,
	SYS: ClassSys, FENCE: ClassFence,
}

// Class returns the timing class of the instruction.
func (in Inst) Class() Class { return opClass[in.Op] }

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool {
	c := opClass[in.Op]
	return c == ClassLoad || c == ClassStore || c == ClassAtomic
}

// IsBranch reports whether the instruction may redirect the PC.
func (in Inst) IsBranch() bool { return in.Class() == ClassBranch }

// String disassembles the instruction.
func (in Inst) String() string {
	switch in.Op {
	case NOP, FENCE:
		return in.Op.String()
	case ADD, SUB, MUL, DIV, AND, OR, XOR, SLT:
		return fmt.Sprintf("%s x%d, x%d, x%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case ADDI:
		return fmt.Sprintf("addi x%d, x%d, %d", in.Rd, in.Rs1, in.Imm)
	case LUI:
		return fmt.Sprintf("lui x%d, %d", in.Rd, in.Imm)
	case LD:
		return fmt.Sprintf("ld x%d, %d(x%d)", in.Rd, in.Imm, in.Rs1)
	case ST:
		return fmt.Sprintf("st x%d, %d(x%d)", in.Rs2, in.Imm, in.Rs1)
	case AMOADD:
		return fmt.Sprintf("amoadd x%d, x%d, (x%d)", in.Rd, in.Rs2, in.Rs1)
	case BEQ, BNE, BLT:
		return fmt.Sprintf("%s x%d, x%d, %d", in.Op, in.Rs1, in.Rs2, in.Imm)
	case JAL:
		return fmt.Sprintf("jal x%d, %d", in.Rd, in.Imm)
	case SYS:
		return fmt.Sprintf("sys %d", in.Imm)
	}
	return in.Op.String()
}

// Program is an executable: a flat instruction sequence starting at PC 0,
// plus the initial data segment break (programs address data memory from
// DataBase upward).
type Program struct {
	Name  string
	Insts []Inst
	// DataWords is the size of the statically allocated data segment in
	// 8-byte words; the generator uses it to bound generated addresses.
	DataWords int64
}

// DataBase is the base byte address of the data segment.
const DataBase int64 = 0x10000

// Memory is the functional memory interface the executor reads and writes
// through. Addresses are byte addresses; accesses are 8-byte words.
type Memory interface {
	ReadWord(addr int64) int64
	WriteWord(addr int64, val int64)
}

// SysHandler receives SYS instructions. Returning done=true ends the
// hardware thread (SysExit).
type SysHandler func(fn int32, arg int64) (done bool)

// State is the architectural state of one hardware thread.
type State struct {
	Regs [NumRegs]int64
	PC   int64
}

// ClassSet is a set of instruction classes: Class c is in the set when
// bit c is set.
type ClassSet uint8

// SetOf returns the set of the given classes.
func SetOf(cs ...Class) ClassSet {
	var set ClassSet
	for _, c := range cs {
		set |= 1 << c
	}
	return set
}

// Result describes the last instruction a Run executed. Run writes
// every field, so a caller can keep one Result for all its runs.
type Result struct {
	Inst    Inst
	MemAddr int64 // valid when Inst.IsMem(); 0 otherwise
	IsWrite bool
	Taken   bool // branch taken
	Done    bool // thread exited via SYS exit
}

// set writes every field of r, one at a time: a composite literal is
// built on the stack and copied with wide loads, which stall on store
// forwarding from its narrow field stores.
func (r *Result) set(in Inst, addr int64, write, taken, done bool) {
	r.Inst = in
	r.MemAddr = addr
	r.IsWrite = write
	r.Taken = taken
	r.Done = done
}

// Run functionally executes instructions from s.PC against mem,
// advancing the state, until it has executed max of them (max >= 1),
// or has executed one whose class is in stop, or one that ends the
// thread. It returns the count and describes the last instruction in
// *res. Run is the one interpreter: every CPU model calls it, asking it
// to stop at the instructions its timing must see, and charges the ones
// before them in bulk. Running one instruction is Run(…, 1, …).
//
// x0 is zero in every state a thread can hold: cpu.System.LoadProgram
// starts from a zeroed state, a checkpoint whose x0 is not zero is
// refused, and Run never writes x0. Register indices are taken mod 32,
// which changes no program Decode accepts (it rejects indices of 32 and
// over) and spares the bounds checks.
//
// The PC lives in a local for the whole run, and *res is written once,
// as the run ends, through a caller-owned pointer; the caller reads its
// fields one at a time.
func Run(s *State, prog *Program, mem Memory, sys SysHandler, max int, stop ClassSet, res *Result) int {
	insts := prog.Insts
	regs := &s.Regs
	pc := s.PC
	for n := 1; ; n++ {
		if uint64(pc) >= uint64(len(insts)) {
			// Running off the end behaves like exit: real programs
			// end with SYS exit, but a malformed binary must not
			// wedge the simulator.
			s.PC = pc
			res.set(Inst{Op: SYS, Imm: SysExit}, 0, false, false, true)
			return n
		}
		in := insts[pc]
		rs1 := regs[in.Rs1&31]
		rs2 := regs[in.Rs2&31]
		rd := in.Rd & 31
		pc++
		var addr int64
		var write, taken, done bool
		// Each case continues the run unless the instruction ends it.
		switch in.Op {
		case ADD:
			if rd != 0 {
				regs[rd] = rs1 + rs2
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case SUB:
			if rd != 0 {
				regs[rd] = rs1 - rs2
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case AND:
			if rd != 0 {
				regs[rd] = rs1 & rs2
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case OR:
			if rd != 0 {
				regs[rd] = rs1 | rs2
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case XOR:
			if rd != 0 {
				regs[rd] = rs1 ^ rs2
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case SLT:
			if rd != 0 {
				v := int64(0)
				if rs1 < rs2 {
					v = 1
				}
				regs[rd] = v
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case ADDI:
			if rd != 0 {
				regs[rd] = rs1 + int64(in.Imm)
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case LUI:
			if rd != 0 {
				regs[rd] = int64(in.Imm) << 12
			}
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		case MUL:
			if rd != 0 {
				regs[rd] = rs1 * rs2
			}
			if n < max && stop&(1<<ClassMulDiv) == 0 {
				continue
			}
		case DIV:
			if rd != 0 {
				q := int64(0)
				if rs2 != 0 {
					q = rs1 / rs2
				}
				regs[rd] = q
			}
			if n < max && stop&(1<<ClassMulDiv) == 0 {
				continue
			}
		case LD:
			addr = rs1 + int64(in.Imm)
			v := mem.ReadWord(addr)
			if rd != 0 {
				regs[rd] = v
			}
			if n < max && stop&(1<<ClassLoad) == 0 {
				continue
			}
		case ST:
			addr = rs1 + int64(in.Imm)
			write = true
			mem.WriteWord(addr, rs2)
			if n < max && stop&(1<<ClassStore) == 0 {
				continue
			}
		case AMOADD:
			addr = rs1
			write = true
			old := mem.ReadWord(rs1)
			mem.WriteWord(rs1, old+rs2)
			if rd != 0 {
				regs[rd] = old
			}
			if n < max && stop&(1<<ClassAtomic) == 0 {
				continue
			}
		case BEQ, BNE, BLT, JAL:
			switch in.Op {
			case BEQ:
				taken = rs1 == rs2
			case BNE:
				taken = rs1 != rs2
			case BLT:
				taken = rs1 < rs2
			default:
				if rd != 0 {
					regs[rd] = pc
				}
				taken = true
			}
			if taken {
				pc += int64(in.Imm) - 1
			}
			if n < max && stop&(1<<ClassBranch) == 0 {
				continue
			}
		case SYS:
			// By convention SYS takes its argument in x1 (the assembler
			// has no operand slot for it).
			if sys != nil {
				done = sys(in.Imm, regs[1])
			} else {
				done = in.Imm == SysExit
			}
			if n < max && stop&(1<<ClassSys) == 0 && !done {
				continue
			}
		case FENCE:
			if n < max && stop&(1<<ClassFence) == 0 {
				continue
			}
		default: // NOP
			if n < max && stop&(1<<ClassALU) == 0 {
				continue
			}
		}
		s.PC = pc
		res.set(in, addr, write, taken, done)
		return n
	}
}
