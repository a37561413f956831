package mem

import "sync"

// pageTable maps 4 KiB page numbers (address >> 12) to pages of P, for
// the backing store and the Ruby directory. The pages below lowPages,
// where every generated program's data lives, sit in a slice indexed by
// page number, so the common access neither hashes nor caches; any other
// page, a negative address's included, goes in a map.
type pageTable[P any] struct {
	low  []*P         // grown to the highest low page made
	high map[int64]*P // nil until a page outside low's range is made
}

// lowPages is the page count of the slice part: 16 MiB of addresses,
// four times the largest generated footprint.
const lowPages = 4096

// get returns key's page, or nil when none was made.
func (t *pageTable[P]) get(key int64) *P {
	if uint64(key) < uint64(len(t.low)) {
		return t.low[key]
	}
	return t.high[key]
}

// put sets key's page to p.
func (t *pageTable[P]) put(key int64, p *P) {
	if uint64(key) >= lowPages {
		if t.high == nil {
			t.high = make(map[int64]*P)
		}
		t.high[key] = p
		return
	}
	if n := int(key) + 1; n > len(t.low) {
		t.low = append(t.low, make([]*P, n-len(t.low))...)
	}
	t.low[key] = p
}

// each calls fn on every page: the low ones in page order, then the
// others in map order.
func (t *pageTable[P]) each(fn func(key int64, p *P)) {
	for k, p := range t.low {
		if p != nil {
			fn(int64(k), p)
		}
	}
	for k, p := range t.high {
		fn(k, p)
	}
}

// release hands every page to pool after clear has reset it, and
// empties the table.
func (t *pageTable[P]) release(pool *sync.Pool, clear func(*P)) {
	t.each(func(_ int64, p *P) {
		clear(p)
		pool.Put(p)
	})
	*t = pageTable[P]{}
}
