package mem

import (
	"fmt"

	"gem5art/internal/sim"
)

// Protocol names a Ruby coherence protocol.
type Protocol string

// The two protocols the paper's boot sweep exercises (Figure 8).
const (
	MIExample    Protocol = "MI_example"
	MESITwoLevel Protocol = "MESI_Two_Level"
)

// dirEntry is the directory's view of one cache line.
type dirEntry struct {
	owner   int    // core holding M/E, -1 if none
	sharers uint64 // bitmask of cores holding S
}

// dirPage holds the directory entries of 64 consecutive lines (4 KiB).
// A line never touched reads as owner -1 and no sharers, which every
// protocol action treats exactly like a line with no entry.
type dirPage [64]dirEntry

// directory maps lines to their entries, a page at a time, and keeps
// the most recently used page out of the map.
type directory struct {
	pages   map[int64]*dirPage
	last    *dirPage // nil when no page is cached
	lastKey int64
}

// page returns the page holding line, creating it when create is set;
// otherwise it returns nil for a page never touched.
func (d *directory) page(line int64, create bool) *dirPage {
	key := line >> 12
	if d.last != nil && d.lastKey == key {
		return d.last
	}
	p, ok := d.pages[key]
	if !ok {
		if !create {
			return nil
		}
		p = dirPagePool.Get().(*dirPage)
		d.pages[key] = p
	}
	d.last, d.lastKey = p, key
	return p
}

// dirSlot is line's index within its page.
func dirSlot(line int64) int { return int(line>>6) & 63 }

// Ruby is a directory-based coherent memory system ("slower but models
// detailed memory with cache coherence flexibility"). The directory sits
// with an inclusive shared L2; misses go to DDR3 DRAM.
//
// MI_example has only Modified/Invalid states: every miss — even a read —
// acquires exclusive ownership, so read-shared data ping-pongs between
// cores. MESI_Two_Level adds Shared/Exclusive, letting read-mostly lines
// be replicated.
type Ruby struct {
	protocol Protocol
	l1s      []*cache
	l2       *cache
	dir      directory
	dram     *DRAM
	store    *BackingStore
	stats    *sim.StatGroup
	nCores   int

	l1HitLat sim.Tick
	dirLat   sim.Tick // L1 miss -> directory/L2 lookup
	fwdLat   sim.Tick // owner-to-requestor forward
	invLat   sim.Tick // invalidation round trip

	l1Hits   *sim.Scalar
	l1Misses *sim.Scalar
	invals   *sim.Scalar
	forwards *sim.Scalar
	getS     *sim.Scalar
	getX     *sim.Scalar
	memReads *sim.Scalar
}

// NewRuby builds a Ruby hierarchy with the given protocol. Cache sizing
// matches NewClassic's defaults.
func NewRuby(cores int, protocol Protocol, cfg ClassicConfig) *Ruby {
	cfg.defaults()
	r := &Ruby{
		protocol: protocol,
		l2:       newCache(cfg.L2Bytes, cfg.L2Ways),
		dir:      directory{pages: make(map[int64]*dirPage)},
		dram:     NewDDR3(),
		store:    NewBackingStore(),
		stats:    sim.NewStatGroup(),
		l1HitLat: 2000,
		dirLat:   24000, // directory/L2 lookup: Ruby pays protocol overhead
		fwdLat:   30000, // three-hop forward
		invLat:   28000,
	}
	r.nCores = cores
	for i := 0; i < cores; i++ {
		r.l1s = append(r.l1s, newCache(cfg.L1Bytes, cfg.L1Ways))
	}
	r.l1Hits = r.stats.Scalar("ruby.l1.hits", "L1 hits (all cores)")
	r.l1Misses = r.stats.Scalar("ruby.l1.misses", "L1 misses (all cores)")
	r.invals = r.stats.Scalar("ruby.invalidations", "directory invalidations sent")
	r.forwards = r.stats.Scalar("ruby.forwards", "owner-to-requestor forwards")
	r.getS = r.stats.Scalar("ruby.GETS", "read requests at the directory")
	r.getX = r.stats.Scalar("ruby.GETX", "write/upgrade requests at the directory")
	r.memReads = r.stats.Scalar("ruby.mem_reads", "line fills from DRAM")
	return r
}

// Kind implements System.
func (r *Ruby) Kind() string { return "ruby." + string(r.protocol) }

// Store implements System.
func (r *Ruby) Store() *BackingStore { return r.store }

// Stats implements System.
func (r *Ruby) Stats() *sim.StatGroup { return r.stats }

func (r *Ruby) entry(line int64) *dirEntry {
	return &r.dir.page(line, true)[dirSlot(line)]
}

// Access implements System.
func (r *Ruby) Access(now sim.Tick, req Request) sim.Tick {
	if req.Core < 0 || req.Core >= len(r.l1s) {
		if r.l2 == nil {
			panic("mem: ruby access after Release")
		}
		panic(fmt.Sprintf("mem: ruby access from core %d of %d", req.Core, len(r.l1s)))
	}
	l1 := r.l1s[req.Core]
	line := lineAddr(req.Addr)
	if cl := l1.lookup(req.Addr); cl != nil {
		switch {
		case req.Type == Read:
			r.l1Hits.Inc()
			return r.l1HitLat
		case cl.state == Modified || cl.state == Exclusive:
			cl.state = Modified
			r.l1Hits.Inc()
			return r.l1HitLat
		default:
			// Write to a Shared line: upgrade at the directory.
			return r.l1HitLat + r.upgrade(now, req.Core, line)
		}
	}
	r.l1Misses.Inc()

	var lat sim.Tick
	var grant LineState
	if req.Type == Read && r.protocol == MESITwoLevel {
		lat, grant = r.gets(now, req.Core, line)
	} else {
		// MI_example treats every request as a GETX; MESI writes too.
		lat, grant = r.getx(now, req.Core, line)
	}
	if victimTag, vs := l1.insert(req.Addr, grant); vs != Invalid {
		r.evictNotify(now, req.Core, victimTag, vs)
	}
	return r.l1HitLat + lat
}

// gets handles a read request at the directory under MESI.
func (r *Ruby) gets(now sim.Tick, core int, line int64) (sim.Tick, LineState) {
	r.getS.Inc()
	e := r.entry(line)
	lat := r.dirLat
	if e.owner >= 0 && e.owner != core {
		// Owner forwards the line; both end Shared.
		if ol := r.l1s[e.owner].peek(line); ol != nil {
			ol.state = Shared
		}
		r.forwards.Inc()
		e.sharers |= 1 << uint(e.owner)
		e.owner = -1
		e.sharers |= 1 << uint(core)
		return lat + r.fwdLat, Shared
	}
	if e.sharers != 0 {
		e.sharers |= 1 << uint(core)
		lat += r.l2Fill(now, line, lat)
		return lat, Shared
	}
	// No sharers: grant Exclusive.
	lat += r.l2Fill(now, line, lat)
	e.owner = core
	return lat, Exclusive
}

// getx handles a write (or MI_example any) request at the directory.
func (r *Ruby) getx(now sim.Tick, core int, line int64) (sim.Tick, LineState) {
	r.getX.Inc()
	e := r.entry(line)
	lat := r.dirLat
	if e.owner >= 0 && e.owner != core {
		r.l1s[e.owner].invalidate(line)
		r.invals.Inc()
		r.forwards.Inc()
		lat += r.fwdLat
		e.owner = -1
	} else {
		// Invalidate all sharers; they proceed in parallel so one round
		// trip dominates, with a small serialization cost per extra
		// sharer.
		nshare := 0
		for c := 0; c < r.nCores; c++ {
			if c != core && e.sharers&(1<<uint(c)) != 0 {
				r.l1s[c].invalidate(line)
				r.invals.Inc()
				nshare++
			}
		}
		if nshare > 0 {
			lat += r.invLat + sim.Tick(nshare-1)*2000
		}
		if e.sharers&(1<<uint(core)) == 0 || nshare == r.nCores-1 {
			lat += r.l2Fill(now, line, lat)
		}
	}
	e.sharers = 0
	e.owner = core
	return lat, Modified
}

// upgrade promotes a Shared line to Modified.
func (r *Ruby) upgrade(now sim.Tick, core int, line int64) sim.Tick {
	lat, _ := r.getx(now, core, line)
	if cl := r.l1s[core].peek(line); cl != nil {
		cl.state = Modified
	}
	return lat
}

// l2Fill charges for getting the line's data from L2 or memory.
func (r *Ruby) l2Fill(now sim.Tick, line int64, sofar sim.Tick) sim.Tick {
	if r.l2.lookup(line) != nil {
		return 0 // data was in L2; dirLat already covered the lookup
	}
	doneAt := r.dram.Access(now+sofar, line)
	r.memReads.Inc()
	if victimTag, vs := r.l2.insert(line, Shared); vs == Modified {
		r.dram.Access(doneAt, victimTag)
	}
	return doneAt - (now + sofar)
}

// evictNotify tells the directory a core silently dropped a line.
func (r *Ruby) evictNotify(now sim.Tick, core int, line int64, st LineState) {
	p := r.dir.page(line, false)
	if p == nil {
		return
	}
	e := &p[dirSlot(line)]
	e.sharers &^= 1 << uint(core)
	if e.owner == core {
		e.owner = -1
		if st == Modified {
			r.dram.Access(now, line) // dirty writeback
		}
	}
}

// Invalidations returns the invalidation count — the signature difference
// between MI_example and MESI_Two_Level on shared-read workloads.
func (r *Ruby) Invalidations() float64 { return r.invals.Value() }
