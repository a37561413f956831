package mem

import "fmt"

// cache is a set-associative tag store with LRU replacement. It tracks
// tags and per-line coherence state only; data lives in the backing
// store, which is the standard trick for trace- and timing-driven cache
// models.
type cache struct {
	setMask  uint64 // set count - 1
	ways     int
	lines    []cacheLine // sets × ways
	lruClock uint64
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

// cacheLine is one way of a set. A tag is line-aligned, so its low six
// bits are free and hold the line's state: a tag check compares one
// word.
type cacheLine struct {
	tagState int64  // line address | LineState
	lru      uint64 // larger = more recently used; 0 when Invalid
}

// stateMask selects the state bits of tagState.
const stateMask = LineBytes - 1

func (l *cacheLine) tag() int64            { return l.tagState &^ stateMask }
func (l *cacheLine) state() LineState      { return LineState(l.tagState & stateMask) }
func (l *cacheLine) setState(st LineState) { l.tagState = l.tag() | int64(st) }

// holds reports whether the line is valid and tagged tag. tagState^tag
// is the state when the tags match and at least LineBytes when they do
// not, so one unsigned compare tests 1 <= state <= Modified.
func (l *cacheLine) holds(tag int64) bool {
	return uint64(l.tagState^tag)-1 < uint64(Modified)
}

// newCache builds a cache of sizeBytes with the given associativity,
// taking a released tag array of the same line count when the pool has
// one. sizeBytes must be a multiple of ways*LineBytes; set count is
// rounded down to at least 1 and must be a power of two, or newCache
// panics.
func newCache(sizeBytes int64, ways int) *cache {
	sets := int(sizeBytes / (int64(ways) * LineBytes))
	if sets < 1 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache of %d bytes, %d ways has %d sets, not a power of two", sizeBytes, ways, sets))
	}
	c, _ := cachePool(sets * ways).Get().(*cache)
	if c == nil {
		c = &cache{lines: make([]cacheLine, sets*ways)}
	}
	c.setMask, c.ways = uint64(sets-1), ways
	return c
}

// set returns the ways addr maps to. The line number is unsigned, so a
// negative address maps to a set like any other; for a non-negative one
// it is the signed line number, and the mask equals the modulus.
func (c *cache) set(addr int64) []cacheLine {
	idx := int((uint64(addr) / uint64(LineBytes)) & c.setMask)
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// find returns the line holding addr, updating LRU order, or on a miss
// nil and the way insert would fill: a miss followed by fill, with
// nothing touching the cache in between, scans the set once.
func (c *cache) find(addr int64) (hit, way *cacheLine) {
	tag := lineAddr(addr)
	set := c.set(addr)
	way = &set[0]
	for i := range set {
		l := &set[i]
		if l.holds(tag) {
			c.lruClock++
			l.lru = c.lruClock
			return l, nil
		}
		if l.lru < way.lru {
			way = l
		}
	}
	return nil, way
}

// peek is find's hit without touching LRU order — used by directory
// probes of remote caches.
func (c *cache) peek(addr int64) *cacheLine {
	tag := lineAddr(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].holds(tag) {
			return &set[i]
		}
	}
	return nil
}

// insert allocates a line for addr in the given state in the way with
// the smallest LRU stamp: the first Invalid way, whose stamp is 0, else
// the least recently used one. It returns the victim line's tag and
// state (state Invalid when no eviction happened).
func (c *cache) insert(addr int64, st LineState) (victimTag int64, victimState LineState) {
	set := c.set(addr)
	way := &set[0]
	for i := range set {
		if set[i].lru < way.lru {
			way = &set[i]
		}
	}
	return c.fill(way, addr, st)
}

// fill places addr's line, in state st, in way, a way of addr's set, and
// returns the tag and state of the line it evicts (state Invalid when
// the way was free).
func (c *cache) fill(way *cacheLine, addr int64, st LineState) (victimTag int64, victimState LineState) {
	if victimState = way.state(); victimState != Invalid {
		victimTag = way.tag()
	}
	c.lruClock++
	*way = cacheLine{tagState: lineAddr(addr) | int64(st), lru: c.lruClock}
	return victimTag, victimState
}

// invalidate drops addr from the cache if present, returning its prior
// state.
func (c *cache) invalidate(addr int64) LineState {
	if l := c.peek(addr); l != nil {
		st := l.state()
		*l = cacheLine{} // Invalid, with the smallest LRU stamp
		return st
	}
	return Invalid
}
