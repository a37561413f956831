package cpu

import (
	"bytes"
	"testing"

	"gem5art/internal/sim/isa"
	"gem5art/internal/sim/mem"
)

// checkpointProg runs long enough to stop midway: it sums into memory.
func checkpointProg(t *testing.T) *isa.Program {
	t.Helper()
	p, err := isa.Assemble("ckpt", `
		addi x1, x0, 5000     # counter
		addi x2, x0, 65536    # accumulator address
	loop:
		ld   x3, 0(x2)
		add  x3, x3, x1
		st   x3, 0(x2)
		addi x1, x1, -1
		bne  x1, x0, loop
		sys exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// expected sum of 1..5000.
const ckptWant = int64(5000 * 5001 / 2)

func TestCheckpointMidRunAndResumeSameModel(t *testing.T) {
	m := mem.NewClassic(1, mem.ClassicConfig{})
	sys := NewSystem(Config{Model: Timing, Cores: 1}, m)
	sys.LoadProgram(0, checkpointProg(t))
	res := sys.Run(5_000_000) // stop partway
	if res.Finished {
		t.Fatal("budget too generous; run finished before checkpoint")
	}
	ck := sys.SaveCheckpoint()
	if ck.Tick == 0 || len(ck.Cores) != 1 || ck.Cores[0].Insts == 0 {
		t.Fatalf("checkpoint: %+v", ck.Cores)
	}

	// Restore into a fresh system and finish.
	m2 := mem.NewClassic(1, mem.ClassicConfig{})
	sys2 := NewSystem(Config{Model: Timing, Cores: 1}, m2)
	sys2.LoadProgram(0, checkpointProg(t))
	if err := sys2.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	res2 := sys2.Run(0)
	if !res2.Finished {
		t.Fatal("restored run did not finish")
	}
	if got := m2.Store().ReadWord(65536); got != ckptWant {
		t.Fatalf("sum = %d, want %d", got, ckptWant)
	}
	if res2.SimTicks <= ck.Tick {
		t.Fatalf("restored run did not advance past checkpoint tick: %d <= %d",
			res2.SimTicks, ck.Tick)
	}
}

func TestCheckpointSwitchCPUModel(t *testing.T) {
	// The hack-back workflow: boot fast with KVM, restore into a
	// detailed timing model.
	fastMem := mem.NewClassic(1, mem.ClassicConfig{})
	fast := NewSystem(Config{Model: KVM, Cores: 1}, fastMem)
	fast.LoadProgram(0, checkpointProg(t))
	fast.Run(200_000) // partial
	ck := fast.SaveCheckpoint()

	detMem := mem.NewRuby(1, mem.MESITwoLevel, mem.ClassicConfig{})
	detailed := NewSystem(Config{Model: Timing, Cores: 1}, detMem)
	detailed.LoadProgram(0, checkpointProg(t))
	if err := detailed.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	res := detailed.Run(0)
	if !res.Finished {
		t.Fatal("did not finish after model switch")
	}
	if got := detMem.Store().ReadWord(65536); got != ckptWant {
		t.Fatalf("sum after model switch = %d, want %d", got, ckptWant)
	}
	// The combined instruction count equals a straight-through run.
	straightMem := mem.NewClassic(1, mem.ClassicConfig{})
	straight := NewSystem(Config{Model: Timing, Cores: 1}, straightMem)
	straight.LoadProgram(0, checkpointProg(t))
	want := straight.Run(0).Insts
	if res.Insts != want {
		t.Fatalf("restored total insts = %d, want %d", res.Insts, want)
	}
}

func TestCheckpointSerializeRoundTrip(t *testing.T) {
	m := mem.NewClassic(2, mem.ClassicConfig{})
	sys := NewSystem(Config{Model: Atomic, Cores: 2}, m)
	sys.LoadProgram(0, checkpointProg(t))
	sys.LoadProgram(1, checkpointProg(t))
	sys.Run(2_000_000)
	ck := sys.SaveCheckpoint()
	data := ck.Serialize()
	got, err := ParseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tick != ck.Tick || len(got.Cores) != 2 {
		t.Fatalf("header: %+v", got)
	}
	for i := range ck.Cores {
		if got.Cores[i] != ck.Cores[i] {
			t.Fatalf("core %d state differs", i)
		}
	}
	if !bytes.Equal(got.Mem, ck.Mem) {
		t.Fatal("memory image differs")
	}
}

func TestParseCheckpointRejectsCorruption(t *testing.T) {
	m := mem.NewClassic(1, mem.ClassicConfig{})
	sys := NewSystem(Config{Model: Atomic, Cores: 1}, m)
	sys.LoadProgram(0, checkpointProg(t))
	sys.Run(100_000)
	data := sys.SaveCheckpoint().Serialize()
	if _, err := ParseCheckpoint(data[:2]); err == nil {
		t.Fatal("parsed truncated magic")
	}
	if _, err := ParseCheckpoint(data[:40]); err == nil {
		t.Fatal("parsed truncated body")
	}
	bad := bytes.Clone(data)
	bad[0] = 'X'
	if _, err := ParseCheckpoint(bad); err == nil {
		t.Fatal("parsed bad magic")
	}
	// Core 0's x0 follows the magic, the tick and the core count.
	x0 := bytes.Clone(data)
	x0[4+8+8] = 1
	if _, err := ParseCheckpoint(x0); err == nil {
		t.Fatal("parsed a core whose x0 is not zero")
	}
}

func TestRestoreRejectsNonzeroX0(t *testing.T) {
	sys := NewSystem(Config{Model: Atomic, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	sys.LoadProgram(0, checkpointProg(t))
	sys.Run(100_000)
	ck := sys.SaveCheckpoint()
	if ck.Cores[0].Regs[0] != 0 {
		t.Fatalf("saved x0 = %d", ck.Cores[0].Regs[0])
	}
	ck.Cores[0].Regs[0] = 7
	again := NewSystem(Config{Model: Atomic, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	again.LoadProgram(0, checkpointProg(t))
	if err := again.RestoreCheckpoint(ck); err == nil {
		t.Fatal("restored a core whose x0 is not zero")
	}
}

func TestRestoreRejectsCoreMismatch(t *testing.T) {
	m := mem.NewClassic(2, mem.ClassicConfig{})
	sys := NewSystem(Config{Model: Atomic, Cores: 2}, m)
	sys.LoadProgram(0, checkpointProg(t))
	sys.LoadProgram(1, checkpointProg(t))
	sys.Run(100_000)
	ck := sys.SaveCheckpoint()

	one := NewSystem(Config{Model: Atomic, Cores: 1}, mem.NewClassic(1, mem.ClassicConfig{}))
	one.LoadProgram(0, checkpointProg(t))
	if err := one.RestoreCheckpoint(ck); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
}

func TestSnapshotRoundTripsBackingStore(t *testing.T) {
	b := mem.NewBackingStore()
	b.WriteWord(0x10000, 42)
	b.WriteWord(0x999000, -9)
	img := b.Snapshot()
	b2 := mem.NewBackingStore()
	if err := b2.LoadSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if b2.ReadWord(0x10000) != 42 || b2.ReadWord(0x999000) != -9 {
		t.Fatal("snapshot lost data")
	}
	if err := b2.LoadSnapshot(img[:4]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}
