package gpu

import (
	"fmt"

	"gem5art/internal/sim"
)

// This file wraps the GPU model in a scheduler component so full-system
// configurations can attach it to the parallel kernel. The shader-cycle
// loop in Run is already deterministic and self-contained, so the
// component integrates at launch granularity: a host component sends a
// Launch over the command port, the device simulates the whole kernel
// inside one event, and a Completion arrives after the kernel's
// simulated duration. Back-to-back launches serialize on the device —
// the second kernel's completion time starts where the first ended,
// matching how gem5's GPU model queues kernels on one device stream.

// CmdLinkLat is the host→device command-port link latency (order of a
// PCIe doorbell write, and the device's conservative lookahead bound).
const CmdLinkLat sim.Tick = 100_000 // 100 ns

// MsgLaunch and MsgCompletion are the command link's sim.Msg kinds. Both
// payloads are large and arrive once per kernel, so they ride in Msg.Ref
// rather than in the record's words.
const (
	MsgLaunch uint16 = iota + 1
	MsgCompletion
)

// Launch asks a Device to run one kernel.
type Launch struct {
	Kernel KernelDesc
	Alloc  Allocator
}

// Msg packs the launch for the command port.
func (l Launch) Msg() sim.Msg { return sim.Msg{Kind: MsgLaunch, Ref: l} }

// Completion answers a Launch. Its arrival tick at the host is the
// kernel's end-of-execution time (or the rejection time for an invalid
// launch).
type Completion struct {
	Result Result
	Err    string // non-empty: the launch was rejected
}

// Msg packs the completion for the command port.
func (c Completion) Msg() sim.Msg { return sim.Msg{Kind: MsgCompletion, Ref: c} }

// CompletionOf unpacks a MsgCompletion.
func CompletionOf(m sim.Msg) Completion { return m.Ref.(Completion) }

// Device is the GPU as a simulation component.
type Device struct {
	cfg       Config
	comp      *sim.Component
	cmd       *sim.Port
	busyUntil sim.Tick

	launches *sim.Scalar
	rejected *sim.Scalar
	busy     *sim.Scalar
}

// NewDevice registers a GPU component on the scheduler with one command
// port. Callers connect CmdPort to a host-side port and handle
// Completion messages there.
func NewDevice(sched *sim.Scheduler, name string, cfg Config) *Device {
	cfg.Defaults()
	comp := sched.NewComponent(name, sim.NewClock(cfg.FreqHz))
	d := &Device{cfg: cfg, comp: comp}
	d.launches = comp.Stats().Scalar(name+".launches", "kernel launches accepted")
	d.rejected = comp.Stats().Scalar(name+".rejected", "kernel launches rejected")
	d.busy = comp.Stats().Scalar(name+".busyTicks", "ticks the device spent executing kernels")
	d.cmd = comp.NewPort("cmd", CmdLinkLat)
	d.cmd.OnReceive(func(when sim.Tick, msg sim.Msg) { d.onCmd(msg) })
	return d
}

// CmdPort returns the device's command port.
func (d *Device) CmdPort() *sim.Port { return d.cmd }

// Config returns the device configuration (with defaults applied).
func (d *Device) Config() Config { return d.cfg }

// onCmd services one Launch: simulate the kernel, serialize it behind
// any kernel already occupying the device, and reply at its end time.
func (d *Device) onCmd(msg sim.Msg) {
	m, ok := msg.Ref.(Launch)
	if msg.Kind != MsgLaunch || !ok {
		panic(fmt.Sprintf("gpu: device received message kind %d carrying %T", msg.Kind, msg.Ref))
	}
	res, err := Run(d.cfg, m.Kernel, m.Alloc)
	if err != nil {
		d.rejected.Inc()
		d.cmd.Send(Completion{Err: err.Error()}.Msg())
		return
	}
	d.launches.Inc()
	start := d.comp.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	dur := d.comp.Clock().Cycles(res.Cycles)
	d.busyUntil = start + dur
	d.busy.Add(float64(dur))
	d.cmd.SendAfter(d.busyUntil-d.comp.Now(), Completion{Result: res}.Msg())
}
