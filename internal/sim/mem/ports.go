package mem

import (
	"fmt"

	"gem5art/internal/sim"
)

// This file is the componentized face of the memory hierarchy, used by
// the parallel simulation engine. The monolithic System implementations
// stay untouched for the single-queue compatibility path; here the same
// L2/directory/DRAM code is split across a conservative-parallel
// component graph:
//
//   - Each core component owns an L1Front: its private L1 cache plus a
//     private functional BackingStore replica. L1 hits never leave the
//     core, so the common case costs no messages.
//   - One Controller component owns everything behind the L1s — the
//     classic crossbar+L2+DRAM or the Ruby directory+L2+DRAM — plus the
//     authoritative functional store that arbitrates atomics.
//
// Latency contract: the monolithic systems charge a total latency T for
// an L1 miss. Componentized, the core pays hitLat before the request
// leaves, each link hop costs CtrlLinkLat, and the controller delays its
// response by T' − 2·CtrlLinkLat, so the round trip reproduces the
// monolithic hitLat + T' exactly whenever T' ≥ 2·CtrlLinkLat (true for
// every backside path: the cheapest, a classic L2 hit, is 21000 ticks).
//
// Fidelity gaps, accepted and deliberate (see DESIGN.md): coherence
// actions (invalidate/downgrade) travel as fire-and-forget messages and
// land one window later than the monolithic protocol's instantaneous
// mutation, and plain loads/stores read the core's private replica, with
// only atomics serialized through the authoritative store. The parallel
// engine therefore carries its own simcache salt.
const CtrlLinkLat sim.Tick = 10_000 // 10 ns core↔controller link

// ReqKind classifies a backside request.
type ReqKind uint8

// Backside request kinds.
const (
	ReqRead ReqKind = iota
	ReqWrite
	ReqUpgrade // Ruby: write hit on a Shared line
	ReqAtomic  // read-modify-write at the authoritative store
)

// The four message types of the core↔controller link, carried in
// sim.Msg.Kind. Each type below has a Msg method that packs it into the
// port's fixed-size record and an …Of function that unpacks it on the
// other side; nothing is boxed, so a message costs no allocation.
const (
	MsgBackReq uint16 = iota + 1
	MsgBackResp
	MsgEvictNote
	MsgCoherence
)

// BackReq is an L1 miss (or atomic) traveling core → controller.
type BackReq struct {
	Core  int
	Addr  int64
	Kind  ReqKind
	Delta int64 // ReqAtomic: value to add
}

// Msg packs the request for a port.
func (r BackReq) Msg() sim.Msg {
	return sim.Msg{Kind: MsgBackReq, Op: uint8(r.Kind), Src: int32(r.Core), A: r.Addr, B: r.Delta}
}

// BackReqOf unpacks a MsgBackReq.
func BackReqOf(m sim.Msg) BackReq {
	return BackReq{Core: int(m.Src), Addr: m.A, Kind: ReqKind(m.Op), Delta: m.B}
}

// BackResp answers a BackReq, controller → core. Its arrival tick at the
// core is the access's completion time.
type BackResp struct {
	Addr  int64
	Kind  ReqKind
	Grant LineState // state to install the line in (except ReqUpgrade)
	Old   int64     // ReqAtomic: the word's value before the add
}

// Msg packs the response for a port.
func (r BackResp) Msg() sim.Msg {
	return sim.Msg{Kind: MsgBackResp, Op: uint8(r.Kind), Tag: uint8(r.Grant), A: r.Addr, B: r.Old}
}

// BackRespOf unpacks a MsgBackResp.
func BackRespOf(m sim.Msg) BackResp {
	return BackResp{Addr: m.A, Kind: ReqKind(m.Op), Grant: LineState(m.Tag), Old: m.B}
}

// EvictNote tells the directory a core silently dropped a line
// (fire-and-forget, Ruby only).
type EvictNote struct {
	Core  int
	Addr  int64
	State LineState
}

// Msg packs the note for a port.
func (n EvictNote) Msg() sim.Msg {
	return sim.Msg{Kind: MsgEvictNote, Tag: uint8(n.State), Src: int32(n.Core), A: n.Addr}
}

// EvictNoteOf unpacks a MsgEvictNote.
func EvictNoteOf(m sim.Msg) EvictNote {
	return EvictNote{Core: int(m.Src), Addr: m.A, State: LineState(m.Tag)}
}

// CoherenceMsg is a directory-initiated action on a core's L1
// (fire-and-forget): invalidate or downgrade-to-Shared a line.
type CoherenceMsg struct {
	Addr       int64
	Invalidate bool // false: downgrade to Shared
}

// Msg packs the action for a port.
func (c CoherenceMsg) Msg() sim.Msg {
	m := sim.Msg{Kind: MsgCoherence, A: c.Addr}
	if c.Invalidate {
		m.Op = 1
	}
	return m
}

// CoherenceOf unpacks a MsgCoherence.
func CoherenceOf(m sim.Msg) CoherenceMsg {
	return CoherenceMsg{Addr: m.A, Invalidate: m.Op != 0}
}

// L1Front is the core-local half of the split hierarchy: the private L1
// and its hit/miss accounting. It lives inside a core component and is
// only ever touched by that component's events.
type L1Front struct {
	coreID int
	cache  *cache
	hitLat sim.Tick
	ruby   bool

	hits   *sim.Scalar
	misses *sim.Scalar
}

// NewL1Front builds the L1 for one core, registering its stats in the
// owning component's group under the same names the monolithic systems
// use, so merged parallel dumps line up with sequential ones.
func NewL1Front(coreID int, ruby bool, cfg ClassicConfig, sg *sim.StatGroup) *L1Front {
	cfg.defaults()
	prefix := "system"
	if ruby {
		prefix = "ruby"
	}
	return &L1Front{
		coreID: coreID,
		cache:  newCache(cfg.L1Bytes, cfg.L1Ways),
		hitLat: 2000,
		ruby:   ruby,
		hits:   sg.Scalar(prefix+".l1.hits", "L1 hits (all cores)"),
		misses: sg.Scalar(prefix+".l1.misses", "L1 misses (all cores)"),
	}
}

// HitLat returns the L1 hit latency.
func (f *L1Front) HitLat() sim.Tick { return f.hitLat }

// Probe checks the L1 for a request. On a hit it returns (latency, true)
// and the request is complete; otherwise it returns the BackReq the core
// must send to the controller (atomics always miss: the RMW must happen
// at the authoritative store).
func (f *L1Front) Probe(req Request) (sim.Tick, bool, BackReq) {
	if req.Type == Atomic {
		// Drop any local copy; the response re-installs it Modified.
		f.cache.invalidate(lineAddr(req.Addr))
		return 0, false, BackReq{Core: f.coreID, Addr: req.Addr, Kind: ReqAtomic}
	}
	if cl := f.cache.lookup(req.Addr); cl != nil {
		if req.Type == Read {
			f.hits.Inc()
			return f.hitLat, true, BackReq{}
		}
		if !f.ruby || cl.state == Modified || cl.state == Exclusive {
			cl.state = Modified
			f.hits.Inc()
			return f.hitLat, true, BackReq{}
		}
		// Ruby write to a Shared line: upgrade at the directory. Like the
		// monolithic path, this counts as neither hit nor miss.
		return 0, false, BackReq{Core: f.coreID, Addr: req.Addr, Kind: ReqUpgrade}
	}
	f.misses.Inc()
	kind := ReqRead
	if req.Type != Read {
		kind = ReqWrite
	}
	return 0, false, BackReq{Core: f.coreID, Addr: req.Addr, Kind: kind}
}

// Fill applies a controller response to the L1 and reports whether an
// eviction note must be forwarded to the directory.
func (f *L1Front) Fill(resp BackResp) (EvictNote, bool) {
	switch resp.Kind {
	case ReqUpgrade:
		if cl := f.cache.peek(lineAddr(resp.Addr)); cl != nil {
			cl.state = Modified
		}
		return EvictNote{}, false
	case ReqAtomic:
		resp.Grant = Modified
	}
	victimTag, vs := f.cache.insert(resp.Addr, resp.Grant)
	if f.ruby && vs != Invalid {
		return EvictNote{Core: f.coreID, Addr: victimTag, State: vs}, true
	}
	return EvictNote{}, false
}

// Coherence applies a directory-initiated invalidate or downgrade.
func (f *L1Front) Coherence(m CoherenceMsg) {
	if m.Invalidate {
		f.cache.invalidate(m.Addr)
		return
	}
	if cl := f.cache.peek(m.Addr); cl != nil {
		cl.state = Shared
	}
}

// Controller is the component owning everything behind the L1s. It
// fields BackReq/EvictNote messages on one port per core and answers
// with BackResps delayed to reproduce the monolithic latency.
type Controller struct {
	comp  *sim.Component
	ports []*sim.Port
	kind  string

	classic *Classic // exactly one of classic/ruby is set
	ruby    *Ruby

	atomics *sim.Scalar
}

// ctrlRemote routes the Ruby directory's coherence actions over the
// controller's ports instead of mutating caches directly.
type ctrlRemote struct{ ctrl *Controller }

func (c ctrlRemote) downgrade(core int, line int64) {
	c.ctrl.ports[core].Send(CoherenceMsg{Addr: line}.Msg())
}

func (c ctrlRemote) invalidate(core int, line int64) {
	c.ctrl.ports[core].Send(CoherenceMsg{Addr: line, Invalidate: true}.Msg())
}

// NewController builds the backside component for the named memory
// system ("classic", "ruby.MI_example", "ruby.MESI_Two_Level") with one
// port per core. Callers connect CorePort(i) to each core component.
func NewController(sched *sim.Scheduler, memKind string, cores int, cfg ClassicConfig) *Controller {
	ctrl := &Controller{kind: memKind}
	switch memKind {
	case "classic":
		ctrl.classic = NewClassic(cores, cfg)
	case "ruby." + string(MIExample):
		ctrl.ruby = NewRuby(cores, MIExample, cfg)
	case "ruby." + string(MESITwoLevel):
		ctrl.ruby = NewRuby(cores, MESITwoLevel, cfg)
	default:
		panic("mem: unknown memory system " + memKind)
	}
	if ctrl.ruby != nil {
		ctrl.ruby.remote = ctrlRemote{ctrl}
	}
	ctrl.comp = sched.NewComponent("memctrl", sim.NewClock(1_000_000_000))
	ctrl.atomics = ctrl.Stats().Scalar("system.mem.atomics", "atomic RMWs at the controller")
	for i := 0; i < cores; i++ {
		i := i
		p := ctrl.comp.NewPort(fmt.Sprintf("core%d", i), CtrlLinkLat)
		p.OnReceive(func(when sim.Tick, msg sim.Msg) { ctrl.receive(i, msg) })
		ctrl.ports = append(ctrl.ports, p)
	}
	return ctrl
}

// Kind returns the configuration label of the wrapped hierarchy.
func (c *Controller) Kind() string { return c.kind }

// CorePort returns the controller-side port for core i.
func (c *Controller) CorePort(i int) *sim.Port { return c.ports[i] }

// Store returns the authoritative functional store (atomics and
// checkpoint base image).
func (c *Controller) Store() *BackingStore {
	if c.classic != nil {
		return c.classic.Store()
	}
	return c.ruby.Store()
}

// Stats returns the backside statistics group (L2, DRAM, directory).
func (c *Controller) Stats() *sim.StatGroup {
	if c.classic != nil {
		return c.classic.Stats()
	}
	return c.ruby.Stats()
}

// RowHitRate exposes the DRAM row-buffer hit rate for aggregate formulas.
func (c *Controller) RowHitRate() float64 {
	if c.classic != nil {
		return c.classic.dram.RowHitRate()
	}
	return c.ruby.dram.RowHitRate()
}

// receive handles one message from a core port.
func (c *Controller) receive(core int, msg sim.Msg) {
	switch msg.Kind {
	case MsgBackReq:
		req := BackReqOf(msg)
		req.Core = core
		c.service(req)
	case MsgEvictNote:
		if c.ruby != nil {
			n := EvictNoteOf(msg)
			c.ruby.evictNotify(c.comp.Now(), n.Core, n.Addr, n.State)
		}
	default:
		panic(fmt.Sprintf("mem: controller received message kind %d", msg.Kind))
	}
}

// service executes one backside request and schedules its response so
// the core-observed round trip equals the monolithic latency.
func (c *Controller) service(req BackReq) {
	now := c.comp.Now()
	line := lineAddr(req.Addr)
	resp := BackResp{Addr: req.Addr, Kind: req.Kind}
	var backLat sim.Tick
	if req.Kind == ReqAtomic {
		c.atomics.Inc()
		old := c.Store().ReadWord(req.Addr)
		c.Store().WriteWord(req.Addr, old+req.Delta)
		resp.Old = old
		resp.Grant = Modified
	}
	if c.classic != nil {
		backLat = c.classic.backsideAccess(now, req.Addr)
		if req.Kind == ReqRead {
			resp.Grant = Shared
		} else {
			resp.Grant = Modified
		}
	} else {
		r := c.ruby
		switch {
		case req.Kind == ReqRead && r.protocol == MESITwoLevel:
			backLat, resp.Grant = r.gets(now, req.Core, line)
		default:
			// MI_example treats every request as a GETX; MESI writes,
			// upgrades, and atomics too.
			var grant LineState
			backLat, grant = r.getx(now, req.Core, line)
			if req.Kind != ReqUpgrade && req.Kind != ReqAtomic {
				resp.Grant = grant
			} else {
				resp.Grant = Modified
			}
		}
	}
	extra := sim.Tick(0)
	if backLat > 2*CtrlLinkLat {
		extra = backLat - 2*CtrlLinkLat
	}
	c.ports[req.Core].SendAfter(extra, resp.Msg())
}
