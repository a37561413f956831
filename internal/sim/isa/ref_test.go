package isa

// refStep is the reference interpreter: it executes the one instruction
// at s.PC, advances the state, and describes the instruction in *res,
// writing every field. It is the instruction semantics written once
// more, one instruction per call and as plainly as possible, so that
// the interpreter the CPU models run can be checked against it.
func refStep(s *State, prog *Program, mem Memory, sys SysHandler, res *Result) {
	pc := s.PC
	if pc < 0 || pc >= int64(len(prog.Insts)) {
		// Running off the end behaves like exit.
		*res = Result{Inst: Inst{Op: SYS, Imm: SysExit}, Done: true}
		return
	}
	in := prog.Insts[pc]
	*res = Result{Inst: in}
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
		if rs2 != 0 {
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
		res.MemAddr = rs1 + int64(in.Imm)
		rd, writeRd = mem.ReadWord(res.MemAddr), true
	case ST:
		res.MemAddr = rs1 + int64(in.Imm)
		res.IsWrite = true
		mem.WriteWord(res.MemAddr, rs2)
	case AMOADD:
		res.MemAddr = rs1
		res.IsWrite = true
		old := mem.ReadWord(rs1)
		mem.WriteWord(rs1, old+rs2)
		rd, writeRd = old, true
	case BEQ:
		res.Taken = rs1 == rs2
	case BNE:
		res.Taken = rs1 != rs2
	case BLT:
		res.Taken = rs1 < rs2
	case JAL:
		rd, writeRd = pc+1, true
		res.Taken = true
	case SYS:
		// SYS takes its argument in x1.
		if sys != nil {
			res.Done = sys(in.Imm, s.Regs[1])
		} else {
			res.Done = in.Imm == SysExit
		}
	}
	if res.Taken {
		next = pc + int64(in.Imm)
	}
	if writeRd && in.Rd != 0 {
		s.Regs[in.Rd] = rd
	}
	s.Regs[0] = 0
	s.PC = next
}

// refRun single-steps refStep the way the interpreter batches: until
// max instructions ran, or one whose class is in stop ran, or one
// ended the thread. It returns the count; *res describes the last.
func refRun(s *State, prog *Program, mem Memory, sys SysHandler, max int, stop uint8, res *Result) int {
	n := 0
	for {
		refStep(s, prog, mem, sys, res)
		n++
		if n >= max || stop&(1<<res.Inst.Class()) != 0 || res.Done {
			return n
		}
	}
}
