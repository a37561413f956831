package gpu

import (
	"testing"

	"gem5art/internal/sim"
)

func deviceKernel(seed int64) KernelDesc {
	return KernelDesc{
		Name: "dev-test", WGs: 8, WavesPerWG: 4,
		VRegsPerWave: 64, SRegsPerWave: 32, LDSPerWG: 4096,
		OpsPerWave: 300, MemFrac: 0.2, LDSFrac: 0.1,
		DepDensity: 0.3, Locality: 0.5, Seed: seed,
	}
}

// TestDeviceMatchesDirectRun checks the component wrapper reports the
// same Result as calling Run directly, and that the completion arrives
// exactly one kernel duration plus one link hop after the launch lands.
func TestDeviceMatchesDirectRun(t *testing.T) {
	sched := sim.NewScheduler(1)
	dev := NewDevice(sched, "gpu", Config{})
	host := sched.NewComponent("host", sim.NewClock(1_000_000_000))
	hp := host.NewPort("gpu", CmdLinkLat)
	sim.Connect(hp, dev.CmdPort())

	var got []Completion
	var at []sim.Tick
	hp.OnReceive(func(when sim.Tick, msg sim.Msg) {
		got = append(got, CompletionOf(msg))
		at = append(at, when)
	})
	host.Schedule(0, func() { hp.Send(Launch{Kernel: deviceKernel(7), Alloc: Simple}.Msg()) })
	sched.Run()

	direct, err := Run(dev.Config(), deviceKernel(7), Simple)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Err != "" {
		t.Fatalf("completions: %+v", got)
	}
	if got[0].Result != direct {
		t.Errorf("device result diverges from direct Run:\n dev: %+v\n dir: %+v", got[0].Result, direct)
	}
	wantEnd := CmdLinkLat + sim.NewClock(dev.Config().FreqHz).Cycles(direct.Cycles) + CmdLinkLat
	if at[0] != wantEnd {
		t.Errorf("completion at %d, want %d", at[0], wantEnd)
	}
}

// TestDeviceSerializesLaunches checks that overlapping launches queue on
// the device: the second completion ends after both kernels' durations.
func TestDeviceSerializesLaunches(t *testing.T) {
	sched := sim.NewScheduler(1)
	dev := NewDevice(sched, "gpu", Config{})
	host := sched.NewComponent("host", sim.NewClock(1_000_000_000))
	hp := host.NewPort("gpu", CmdLinkLat)
	sim.Connect(hp, dev.CmdPort())

	var at []sim.Tick
	hp.OnReceive(func(when sim.Tick, msg sim.Msg) { at = append(at, when) })
	host.Schedule(0, func() {
		hp.Send(Launch{Kernel: deviceKernel(7), Alloc: Simple}.Msg())
		hp.Send(Launch{Kernel: deviceKernel(8), Alloc: Dynamic}.Msg())
	})
	sched.Run()

	r1, _ := Run(dev.Config(), deviceKernel(7), Simple)
	r2, _ := Run(dev.Config(), deviceKernel(8), Dynamic)
	clock := sim.NewClock(dev.Config().FreqHz)
	if len(at) != 2 {
		t.Fatalf("want 2 completions, got %d", len(at))
	}
	wantSecond := CmdLinkLat + clock.Cycles(r1.Cycles) + clock.Cycles(r2.Cycles) + CmdLinkLat
	if at[1] != wantSecond {
		t.Errorf("second completion at %d, want %d (serialized)", at[1], wantSecond)
	}
}

// TestDeviceRejectsInvalidLaunch checks validation errors come back as
// Completion.Err rather than killing the simulation.
func TestDeviceRejectsInvalidLaunch(t *testing.T) {
	sched := sim.NewScheduler(1)
	dev := NewDevice(sched, "gpu", Config{})
	host := sched.NewComponent("host", sim.NewClock(1_000_000_000))
	hp := host.NewPort("gpu", CmdLinkLat)
	sim.Connect(hp, dev.CmdPort())

	bad := deviceKernel(1)
	bad.WavesPerWG = 1000 // exceeds CU capacity
	var got []Completion
	hp.OnReceive(func(when sim.Tick, msg sim.Msg) { got = append(got, CompletionOf(msg)) })
	host.Schedule(0, func() { hp.Send(Launch{Kernel: bad, Alloc: Simple}.Msg()) })
	sched.Run()

	if len(got) != 1 || got[0].Err == "" {
		t.Fatalf("want one rejection, got %+v", got)
	}
}
