// Package isa defines the small RISC instruction set executed by the CPU
// models: 32 integer registers, fixed 32-bit instruction words, loads and
// stores, conditional branches, an atomic add for synchronization, and a
// SYS instruction used like gem5's m5ops to signal the simulator (exit,
// work-begin, work-end). It includes an assembler, a binary encoder used
// to produce "benchmark executables" stored on disk images, and a
// deterministic synthetic program generator used by the workload models.
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

// StepResult describes one executed instruction for the timing models.
// Step writes every field on every call, so a caller can keep one
// StepResult for a whole batch of instructions.
type StepResult struct {
	Inst    Inst
	MemAddr int64 // valid when Inst.IsMem(); 0 otherwise
	IsWrite bool
	Taken   bool // branch taken
	Done    bool // thread exited via SYS exit
}

// Step functionally executes the instruction at s.PC against mem,
// advances the state, and describes the instruction in *res. It is the
// single source of truth for instruction semantics; every CPU model
// calls it and layers timing on top.
//
// The result goes through a caller-owned pointer rather than a return
// value: Step fills it one narrow field at a time, and copying a
// returned struct out reloads those fields with wide loads, which stall
// on store forwarding. The caller reads the fields one at a time.
func Step(s *State, prog *Program, mem Memory, sys SysHandler, res *StepResult) {
	pc := s.PC
	if pc < 0 || pc >= int64(len(prog.Insts)) {
		// Running off the end behaves like exit: real programs end with
		// SYS exit, but a malformed binary must not wedge the simulator.
		*res = StepResult{Inst: Inst{Op: SYS, Imm: SysExit}, Done: true}
		return
	}
	in := prog.Insts[pc]
	res.Inst = in
	res.MemAddr = 0
	res.IsWrite = false
	res.Taken = false
	res.Done = false
	next := pc + 1
	rs1 := s.Regs[in.Rs1]
	rs2 := s.Regs[in.Rs2]
	var rd int64
	writeRd := false
	switch in.Op {
	case NOP, FENCE:
	case ADD:
		rd, writeRd = rs1+rs2, true
	case SUB:
		rd, writeRd = rs1-rs2, true
	case MUL:
		rd, writeRd = rs1*rs2, true
	case DIV:
		if rs2 == 0 {
			rd = 0
		} else {
			rd = rs1 / rs2
		}
		writeRd = true
	case AND:
		rd, writeRd = rs1&rs2, true
	case OR:
		rd, writeRd = rs1|rs2, true
	case XOR:
		rd, writeRd = rs1^rs2, true
	case SLT:
		if rs1 < rs2 {
			rd = 1
		}
		writeRd = true
	case ADDI:
		rd, writeRd = rs1+int64(in.Imm), true
	case LUI:
		rd, writeRd = int64(in.Imm)<<12, true
	case LD:
		addr := rs1 + int64(in.Imm)
		res.MemAddr = addr
		rd, writeRd = mem.ReadWord(addr), true
	case ST:
		addr := rs1 + int64(in.Imm)
		res.MemAddr = addr
		res.IsWrite = true
		mem.WriteWord(addr, rs2)
	case AMOADD:
		res.MemAddr = rs1
		res.IsWrite = true
		old := mem.ReadWord(rs1)
		mem.WriteWord(rs1, old+rs2)
		rd, writeRd = old, true
	case BEQ:
		if rs1 == rs2 {
			res.Taken = true
			next = pc + int64(in.Imm)
		}
	case BNE:
		if rs1 != rs2 {
			res.Taken = true
			next = pc + int64(in.Imm)
		}
	case BLT:
		if rs1 < rs2 {
			res.Taken = true
			next = pc + int64(in.Imm)
		}
	case JAL:
		rd, writeRd = pc+1, true
		res.Taken = true
		next = pc + int64(in.Imm)
	case SYS:
		// By convention SYS takes its argument in x1 (the assembler has
		// no operand slot for it).
		if sys != nil {
			res.Done = sys(in.Imm, s.Regs[1])
		} else if in.Imm == SysExit {
			res.Done = true
		}
	}
	if writeRd && in.Rd != 0 {
		s.Regs[in.Rd] = rd
	}
	s.Regs[0] = 0
	s.PC = next
}
