package mem

// cache is a set-associative tag store with LRU replacement. It tracks
// tags and per-line coherence state only; data lives in the backing
// store, which is the standard trick for trace- and timing-driven cache
// models.
type cache struct {
	sets      int
	ways      int
	lines     []cacheLine // sets × ways
	lruClock  uint64
	hits      uint64
	misses    uint64
	evictions uint64
}

// LineState is the coherence state of a cached line. Classic caches use
// only Invalid/Shared/Modified (valid/dirty); Ruby protocols use the full
// set.
type LineState uint8

// Line states (MESI superset; MI_example uses M and I only).
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	default:
		return "M"
	}
}

type cacheLine struct {
	tag   int64
	state LineState
	lru   uint64 // larger = more recently used
}

// newCache builds a cache of sizeBytes with the given associativity.
// sizeBytes must be a multiple of ways*LineBytes; set count is rounded
// down to at least 1.
func newCache(sizeBytes int64, ways int) *cache {
	sets := int(sizeBytes / (int64(ways) * LineBytes))
	if sets < 1 {
		sets = 1
	}
	return &cache{
		sets:  sets,
		ways:  ways,
		lines: make([]cacheLine, sets*ways),
	}
}

func (c *cache) set(addr int64) []cacheLine {
	idx := int((addr / LineBytes) % int64(c.sets))
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// lookup returns the line holding addr, or nil. Hits update LRU order.
func (c *cache) lookup(addr int64) *cacheLine {
	tag := lineAddr(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			c.lruClock++
			set[i].lru = c.lruClock
			c.hits++
			return &set[i]
		}
	}
	c.misses++
	return nil
}

// peek is lookup without touching hit/miss counters or LRU — used by
// directory probes of remote caches.
func (c *cache) peek(addr int64) *cacheLine {
	tag := lineAddr(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// insert allocates a line for addr in the given state, evicting the LRU
// way if needed. It returns the victim line's tag and state (state
// Invalid when no eviction happened).
func (c *cache) insert(addr int64, st LineState) (victimTag int64, victimState LineState) {
	tag := lineAddr(addr)
	set := c.set(addr)
	victim := 0
	for i := range set {
		if set[i].state == Invalid {
			victim = i
			victimState = Invalid
			goto place
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	victimTag = set[victim].tag
	victimState = set[victim].state
	c.evictions++
place:
	c.lruClock++
	set[victim] = cacheLine{tag: tag, state: st, lru: c.lruClock}
	return victimTag, victimState
}

// invalidate drops addr from the cache if present, returning its prior
// state.
func (c *cache) invalidate(addr int64) LineState {
	if l := c.peek(addr); l != nil {
		st := l.state
		l.state = Invalid
		return st
	}
	return Invalid
}
