package cpu

import (
	"encoding/binary"
	"fmt"

	"gem5art/internal/sim"
	"gem5art/internal/sim/isa"
)

// Checkpointing mirrors gem5's m5 checkpoint workflow (used by the
// hack-back resource): boot with a fast CPU model, snapshot the
// architectural state and memory image, then restore the snapshot into a
// system built around a detailed CPU model and continue simulating. Only
// architectural state is saved — microarchitectural state (caches,
// predictors) warms up again after restore, exactly as in gem5.

// Checkpoint is a serialized architectural snapshot.
type Checkpoint struct {
	Tick  sim.Tick
	Cores []CoreState
	Mem   []byte // serialized backing store
}

// CoreState is one hardware thread's architectural state.
type CoreState struct {
	Regs  [isa.NumRegs]int64
	PC    int64
	Done  bool
	Insts uint64
}

// SaveCheckpoint snapshots the system. The caller is responsible for
// pairing the checkpoint with the same programs and disk contents when
// restoring (as with gem5, a checkpoint is only valid against the inputs
// it was taken with).
func (s *System) SaveCheckpoint() *Checkpoint {
	ck := &Checkpoint{Tick: s.eq.Now()}
	for _, c := range s.cores {
		ck.Cores = append(ck.Cores, CoreState{
			Regs:  c.state.Regs,
			PC:    c.state.PC,
			Done:  c.done,
			Insts: c.insts,
		})
	}
	ck.Mem = s.memory.Store().Snapshot()
	return ck
}

// RestoreCheckpoint loads a snapshot into this system. The system must
// have the same core count and already have its programs loaded; the
// target CPU model and memory system may differ from the source's —
// that is the point of the workflow. A core whose x0 is not zero is
// refused, as ParseCheckpoint refuses it: isa.Run never writes x0, so
// x0 is zero in every state a system can hold.
func (s *System) RestoreCheckpoint(ck *Checkpoint) error {
	if len(ck.Cores) != len(s.cores) {
		return fmt.Errorf("cpu: checkpoint has %d cores, system has %d",
			len(ck.Cores), len(s.cores))
	}
	for i, cs := range ck.Cores {
		c := s.cores[i]
		if c.prog == nil && !cs.Done {
			return fmt.Errorf("cpu: core %d has no program loaded", i)
		}
		if cs.Regs[0] != 0 {
			return fmt.Errorf("cpu: core %d: x0 is %d, not 0", i, cs.Regs[0])
		}
		c.state.Regs = cs.Regs
		c.state.PC = cs.PC
		c.done = cs.Done
		c.insts = cs.Insts
	}
	if err := s.memory.Store().LoadSnapshot(ck.Mem); err != nil {
		return fmt.Errorf("cpu: restore memory: %w", err)
	}
	// Restored time starts at the checkpoint tick.
	s.eq.Schedule(ck.Tick, noop)
	s.eq.Step()
	return nil
}

// Serialize renders the checkpoint to bytes for artifact storage.
func (ck *Checkpoint) Serialize() []byte {
	var out []byte
	var u64 [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(u64[:], v)
		out = append(out, u64[:]...)
	}
	out = append(out, 'G', '5', 'C', 'K')
	put(uint64(ck.Tick))
	put(uint64(len(ck.Cores)))
	for _, c := range ck.Cores {
		for _, r := range c.Regs {
			put(uint64(r))
		}
		put(uint64(c.PC))
		if c.Done {
			put(1)
		} else {
			put(0)
		}
		put(c.Insts)
	}
	put(uint64(len(ck.Mem)))
	out = append(out, ck.Mem...)
	return out
}

// ParseCheckpoint reverses Serialize.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 4 || string(data[:4]) != "G5CK" {
		return nil, fmt.Errorf("cpu: bad checkpoint magic")
	}
	data = data[4:]
	next := func() (uint64, error) {
		if len(data) < 8 {
			return 0, fmt.Errorf("cpu: truncated checkpoint")
		}
		v := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return v, nil
	}
	ck := &Checkpoint{}
	tick, err := next()
	if err != nil {
		return nil, err
	}
	ck.Tick = sim.Tick(tick)
	ncores, err := next()
	if err != nil {
		return nil, err
	}
	if ncores > 1024 {
		return nil, fmt.Errorf("cpu: implausible core count %d", ncores)
	}
	for i := uint64(0); i < ncores; i++ {
		var cs CoreState
		for r := 0; r < isa.NumRegs; r++ {
			v, err := next()
			if err != nil {
				return nil, err
			}
			cs.Regs[r] = int64(v)
		}
		if cs.Regs[0] != 0 {
			return nil, fmt.Errorf("cpu: core %d: x0 is %d, not 0", i, cs.Regs[0])
		}
		pc, err := next()
		if err != nil {
			return nil, err
		}
		cs.PC = int64(pc)
		done, err := next()
		if err != nil {
			return nil, err
		}
		cs.Done = done == 1
		insts, err := next()
		if err != nil {
			return nil, err
		}
		cs.Insts = insts
		ck.Cores = append(ck.Cores, cs)
	}
	memLen, err := next()
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) < memLen {
		return nil, fmt.Errorf("cpu: truncated checkpoint memory")
	}
	ck.Mem = data[:memLen:memLen]
	return ck, nil
}
