package mem

import "sync"

// A finished simulated system hands its memory back: Release on a
// System clears its cache tag arrays, directory pages and backing-store
// pages and puts them in the pools below, and the next system of the
// same geometry takes them instead of allocating. Everything is cleared
// on release, never on take, so a taken object is indistinguishable
// from a new one, and a system nobody releases costs what it always did.

// cachePools holds released caches, one pool per line count.
var cachePools struct {
	sync.Mutex
	byLines map[int]*sync.Pool
}

// cachePool returns the pool of caches with the given line count.
func cachePool(lines int) *sync.Pool {
	cachePools.Lock()
	defer cachePools.Unlock()
	p := cachePools.byLines[lines]
	if p == nil {
		if cachePools.byLines == nil {
			cachePools.byLines = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		cachePools.byLines[lines] = p
	}
	return p
}

// release clears the cache — every line Invalid, every counter 0 — and
// hands it to its pool. The caller must drop its pointer.
func (c *cache) release() {
	clear(c.lines)
	*c = cache{lines: c.lines}
	cachePool(len(c.lines)).Put(c)
}

// pagePool holds cleared backing-store pages.
var pagePool = sync.Pool{New: func() any { return new([512]int64) }}

// emptyDirPage is a directory page no line has touched.
var emptyDirPage = func() (p dirPage) {
	for i := range p {
		p[i].owner = -1
	}
	return p
}()

// dirPagePool holds directory pages reset to emptyDirPage.
var dirPagePool = sync.Pool{New: func() any {
	p := new(dirPage)
	*p = emptyDirPage
	return p
}}

// Release clears the store's pages and hands them back to the page
// pool. The store reads as empty afterwards and panics on a write; a
// second Release does nothing.
func (b *BackingStore) Release() {
	b.pages.release(&pagePool, func(p *[512]int64) { *p = [512]int64{} })
	b.released = true
}

// Release implements System.
func (c *Classic) Release() {
	if c.l2 == nil {
		return
	}
	for _, l1 := range c.l1s {
		l1.release()
	}
	c.l2.release()
	c.store.Release()
	c.l1s, c.l2 = nil, nil
}

// Release implements System.
func (r *Ruby) Release() {
	if r.l2 == nil {
		return
	}
	for _, l1 := range r.l1s {
		l1.release()
	}
	r.l2.release()
	r.dir.release(&dirPagePool, func(p *dirPage) { *p = emptyDirPage })
	r.store.Release()
	r.l1s, r.l2 = nil, nil
}
