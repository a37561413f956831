package mem

import (
	"testing"

	"gem5art/internal/sim"
)

// dirty runs reads, writes and atomics from two cores over a few dozen
// lines, so caches hold lines in several states, the directory has
// owners and sharers, and the store has written pages.
func dirty(s System) {
	for i := 0; i < 600; i++ {
		addr := 0x10000 + int64(i*7919%97)*LineBytes
		typ := Read
		switch i % 5 {
		case 0:
			typ = Write
		case 3:
			typ = Atomic
		}
		s.Access(sim.Tick(i)*1000, Request{Addr: addr, Type: typ, Core: i % 2})
		s.Store().WriteWord(addr+int64(i%8)*8, int64(i)+1)
	}
	// Lines only core 0 ever reads: Exclusive under MESI.
	for i := int64(0); i < 8; i++ {
		s.Access(sim.Tick(600+i)*1000, Request{Addr: 0x40000 + i*LineBytes, Type: Read, Core: 0})
	}
}

// parts returns the caches, directory pages and store pages a system
// holds, so a test can look at them after the system lets go.
func parts(s System) (caches []*cache, dir []*dirPage, pages []*[512]int64) {
	var store *BackingStore
	switch s := s.(type) {
	case *Classic:
		caches = append(append(caches, s.l1s...), s.l2)
		store = s.store
	case *Ruby:
		caches = append(append(caches, s.l1s...), s.l2)
		s.dir.each(func(_ int64, p *dirPage) { dir = append(dir, p) })
		store = s.store
	}
	store.pages.each(func(_ int64, p *[512]int64) { pages = append(pages, p) })
	return caches, dir, pages
}

// checkClean fails t unless every line is Invalid with no tag or LRU
// stamp, every LRU clock 0, every word 0 and every directory entry has
// owner -1 and no sharers.
func checkClean(t *testing.T, what string, caches []*cache, dir []*dirPage, pages []*[512]int64) {
	t.Helper()
	for i, c := range caches {
		if c.lruClock != 0 {
			t.Errorf("%s: cache %d keeps LRU clock %d", what, i, c.lruClock)
		}
		for j, l := range c.lines {
			if l != (cacheLine{}) {
				t.Errorf("%s: cache %d line %d is %+v, want Invalid", what, i, j, l)
				break
			}
		}
	}
	for i, p := range dir {
		if *p != emptyDirPage {
			t.Errorf("%s: directory page %d keeps owners or sharers", what, i)
		}
	}
	for i, p := range pages {
		if *p != ([512]int64{}) {
			t.Errorf("%s: store page %d keeps data", what, i)
		}
	}
}

// TestReleasedMemoryComesBackClean dirties each memory system, releases
// it, and checks both what it released and a system rebuilt with the
// same geometry, which takes the released memory from the pools.
func TestReleasedMemoryComesBackClean(t *testing.T) {
	const cores = 2
	builds := map[string]func() System{
		"classic":             func() System { return NewClassic(cores, ClassicConfig{}) },
		"ruby.MI_example":     func() System { return NewRuby(cores, MIExample, ClassicConfig{}) },
		"ruby.MESI_Two_Level": func() System { return NewRuby(cores, MESITwoLevel, ClassicConfig{}) },
	}
	for kind, build := range builds {
		s := build()
		dirty(s)
		caches, dir, pages := parts(s)
		states := map[LineState]bool{}
		for _, c := range caches {
			for _, l := range c.lines {
				states[l.state()] = true
			}
		}
		want := []LineState{Invalid, Shared, Modified}
		if kind == "ruby.MI_example" {
			want = []LineState{Invalid, Modified}
		}
		if kind == "ruby.MESI_Two_Level" {
			want = append(want, Exclusive)
		}
		for _, st := range want {
			if !states[st] {
				t.Fatalf("%s: no line in state %s to release", kind, st)
			}
		}
		if len(pages) == 0 || (kind != "classic" && len(dir) == 0) {
			t.Fatalf("%s: nothing dirtied: %d store pages, %d directory pages", kind, len(pages), len(dir))
		}
		if kind == "ruby.MESI_Two_Level" {
			var owned, shared bool
			for _, p := range dir {
				for _, e := range p {
					owned = owned || e.owner >= 0
					shared = shared || e.sharers != 0
				}
			}
			if !owned || !shared {
				t.Fatalf("%s: directory has owners %v, sharers %v; want both", kind, owned, shared)
			}
		}

		s.Release()
		checkClean(t, kind+" released", caches, dir, pages)
		s.Release() // a second Release does nothing
		checkClean(t, kind+" released twice", caches, dir, pages)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Access after Release did not panic", kind)
				}
			}()
			s.Access(0, Request{Addr: 0x10000, Core: 0})
		}()
		if got := s.Store().ReadWord(0x10000); got != 0 {
			t.Errorf("%s: released store reads %d, want 0", kind, got)
		}

		// A rebuilt system of the same geometry: touch every page the
		// dirty one had, so it takes pages from the pools too.
		again := build()
		for i := 0; i < 97; i++ {
			addr := 0x10000 + int64(i)*LineBytes
			again.Store().WriteWord(addr, 0)
			if r, ok := again.(*Ruby); ok {
				r.entry(addr)
			}
		}
		caches, dir, pages = parts(again)
		checkClean(t, kind+" rebuilt", caches, dir, pages)
		again.Release()
	}
}
