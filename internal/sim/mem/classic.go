package mem

import (
	"fmt"

	"gem5art/internal/sim"
)

// ClassicConfig sizes the classic hierarchy. Zero values take the
// defaults used by the paper's configurations.
type ClassicConfig struct {
	L1Bytes int64 // per-core L1 data cache (default 32 KiB)
	L1Ways  int   // default 4
	L2Bytes int64 // shared L2 (default 256 KiB)
	L2Ways  int   // default 8
	// L2Prefetch enables a next-line prefetcher at the L2: every demand
	// miss also fills line+1 in the background. Sequential workloads
	// trade DRAM bandwidth for latency.
	L2Prefetch bool
}

func (c *ClassicConfig) defaults() {
	if c.L1Bytes == 0 {
		c.L1Bytes = 32 * 1024
	}
	if c.L1Ways == 0 {
		c.L1Ways = 4
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 256 * 1024
	}
	if c.L2Ways == 0 {
		c.L2Ways = 8
	}
}

// Classic is gem5's classic memory system: private L1s behind a coherent
// crossbar in name only — it tracks no sharers and sends no
// invalidations, which is exactly the "lacks coherence fidelity" the
// paper notes. Multi-core timing-mode correctness issues stemming from
// this are modeled in the kernel boot failure model, not here.
type Classic struct {
	l1s      []*cache
	l2       *cache
	dram     *DRAM
	store    *BackingStore
	stats    *sim.StatGroup
	prefetch bool

	l1HitLat sim.Tick
	l2HitLat sim.Tick
	xbarLat  sim.Tick

	l1Hits     *sim.Scalar
	l1Misses   *sim.Scalar
	l2Hits     *sim.Scalar
	l2Misses   *sim.Scalar
	dramReqs   *sim.Scalar
	prefetches *sim.Scalar
}

// NewClassic builds a classic hierarchy for the given core count.
func NewClassic(cores int, cfg ClassicConfig) *Classic {
	cfg.defaults()
	c := &Classic{
		l2:       newCache(cfg.L2Bytes, cfg.L2Ways),
		dram:     NewDDR3(),
		store:    NewBackingStore(),
		stats:    sim.NewStatGroup(),
		prefetch: cfg.L2Prefetch,
		l1HitLat: 2000,  // 2 ns
		l2HitLat: 20000, // 20 ns
		xbarLat:  1000,  // 1 ns
	}
	for i := 0; i < cores; i++ {
		c.l1s = append(c.l1s, newCache(cfg.L1Bytes, cfg.L1Ways))
	}
	c.l1Hits = c.stats.Scalar("system.l1.hits", "L1 hits (all cores)")
	c.l1Misses = c.stats.Scalar("system.l1.misses", "L1 misses (all cores)")
	c.l2Hits = c.stats.Scalar("system.l2.hits", "L2 hits")
	c.l2Misses = c.stats.Scalar("system.l2.misses", "L2 misses")
	c.dramReqs = c.stats.Scalar("system.mem.requests", "DRAM requests")
	c.prefetches = c.stats.Scalar("system.l2.prefetches", "next-line prefetches issued")
	c.stats.Formula("system.l1.miss_rate", "L1 miss rate", func() float64 {
		total := c.l1Hits.Value() + c.l1Misses.Value()
		if total == 0 {
			return 0
		}
		return c.l1Misses.Value() / total
	})
	c.stats.Formula("system.mem.row_hit_rate", "DRAM row buffer hit rate",
		c.dram.RowHitRate)
	return c
}

// Kind implements System.
func (c *Classic) Kind() string { return "classic" }

// Store implements System.
func (c *Classic) Store() *BackingStore { return c.store }

// Stats implements System.
func (c *Classic) Stats() *sim.StatGroup { return c.stats }

// Access implements System.
func (c *Classic) Access(now sim.Tick, req Request) sim.Tick {
	if req.Core < 0 || req.Core >= len(c.l1s) {
		if c.l2 == nil {
			panic("mem: classic access after Release")
		}
		panic(fmt.Sprintf("mem: classic access from core %d of %d", req.Core, len(c.l1s)))
	}
	l1 := c.l1s[req.Core]
	if line := l1.lookup(req.Addr); line != nil {
		c.l1Hits.Inc()
		if req.Type != Read {
			line.state = Modified
		}
		return c.l1HitLat
	}
	c.l1Misses.Inc()
	lat := c.l1HitLat + c.backsideAccess(now+c.l1HitLat, req.Addr)
	st := Shared
	if req.Type != Read {
		st = Modified
	}
	l1.insert(req.Addr, st)
	return lat
}

// backsideAccess services an L1 miss arriving at the crossbar at time now
// and returns the crossbar→L2→DRAM latency.
func (c *Classic) backsideAccess(now sim.Tick, addr int64) sim.Tick {
	lat := c.xbarLat
	if c.l2.lookup(addr) != nil {
		c.l2Hits.Inc()
		return lat + c.l2HitLat
	}
	c.l2Misses.Inc()
	lat += c.l2HitLat // L2 lookup cost on the way to memory
	doneAt := c.dram.Access(now+lat, addr)
	c.dramReqs.Inc()
	lat = doneAt - now
	if _, vs := c.l2.insert(addr, Shared); vs == Modified {
		// Dirty victim writeback occupies the channel but the CPU
		// does not wait for it.
		c.dram.Access(doneAt, addr)
	}
	if c.prefetch {
		next := lineAddr(addr) + LineBytes
		if c.l2.peek(next) == nil {
			// Background fill: consumes DRAM bandwidth but the CPU
			// does not wait for it.
			c.dram.Access(doneAt, next)
			c.dramReqs.Inc()
			c.prefetches.Inc()
			c.l2.insert(next, Shared)
		}
	}
	return lat
}
