package mem

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"gem5art/internal/sim"
)

func TestBackingStoreRoundTrip(t *testing.T) {
	b := NewBackingStore()
	b.WriteWord(0x10000, 42)
	b.WriteWord(0x10008, -7)
	if b.ReadWord(0x10000) != 42 || b.ReadWord(0x10008) != -7 {
		t.Fatal("read-after-write failed")
	}
	if b.ReadWord(0x999999) != 0 {
		t.Fatal("untouched memory not zero")
	}
}

// TestLoadSnapshotRejectsOversizedPageCount: a page count the data
// cannot hold is an error and leaves the image as it was, however large
// the count — including counts whose byte size overflows 64 bits.
func TestLoadSnapshotRejectsOversizedPageCount(t *testing.T) {
	src := NewBackingStore()
	src.WriteWord(0x10000, 42)
	snap := src.Snapshot()
	for _, n := range []uint64{2, 1 << 61, 4494486104009975, 1 << 63, math.MaxUint64} {
		data := append([]byte(nil), snap...)
		binary.LittleEndian.PutUint64(data, n)
		b := NewBackingStore()
		b.WriteWord(0x20000, 7)
		if err := b.LoadSnapshot(data); err == nil {
			t.Errorf("page count %d: accepted", n)
		}
		if b.ReadWord(0x20000) != 7 {
			t.Errorf("page count %d: rejected snapshot changed the image", n)
		}
	}
}

// TestLoadSnapshotDropsCachedPage: a read after LoadSnapshot sees the
// snapshot's image, not a page the store held before, and a write after
// it lands in the new image.
func TestLoadSnapshotDropsCachedPage(t *testing.T) {
	src := NewBackingStore()
	src.WriteWord(0x10000, 42)
	snap := src.Snapshot()
	b := NewBackingStore()
	b.WriteWord(0x10000, 7)
	b.WriteWord(0x30000, 9)
	if b.ReadWord(0x30000) != 9 {
		t.Fatal("read-after-write failed")
	}
	if err := b.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := b.ReadWord(0x30000); got != 0 {
		t.Errorf("word outside the snapshot reads %d, want 0", got)
	}
	if got := b.ReadWord(0x10000); got != 42 {
		t.Errorf("word in the snapshot reads %d, want 42", got)
	}
	b.WriteWord(0x10008, 5)
	again := NewBackingStore()
	if err := again.LoadSnapshot(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if again.ReadWord(0x10000) != 42 || again.ReadWord(0x10008) != 5 {
		t.Error("a write after LoadSnapshot missed the loaded image")
	}
}

// TestSnapshotListsPagesOfBothParts: pages in the page table's slice
// and in its map, negative ones included, read back, and Snapshot lists
// them all in ascending key order: the bytes a sorted page map gave.
func TestSnapshotListsPagesOfBothParts(t *testing.T) {
	b := NewBackingStore()
	words := map[int64]int64{}
	for _, addr := range []int64{lowPages<<12 + 8, 0x10000, -8, -3 << 12, 0x11ff8, lowPages<<12 - 8, 1 << 40} {
		words[addr] = addr/8 + 1
		b.WriteWord(addr, addr/8+1)
	}
	for addr, v := range words {
		if got := b.ReadWord(addr); got != v {
			t.Errorf("word at %#x reads %d, want %d", addr, got, v)
		}
	}
	// The image a map of pages, sorted by key, serializes to.
	pages := map[int64]*[512]int64{}
	for addr, v := range words {
		if pages[addr>>12] == nil {
			pages[addr>>12] = new([512]int64)
		}
		pages[addr>>12][(addr>>3)&511] = v
	}
	keys := make([]int64, 0, len(pages))
	for k := range pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := binary.LittleEndian.AppendUint64(nil, uint64(len(keys)))
	for _, k := range keys {
		want = binary.LittleEndian.AppendUint64(want, uint64(k))
		for _, w := range pages[k] {
			want = binary.LittleEndian.AppendUint64(want, uint64(w))
		}
	}
	snap := b.Snapshot()
	if !bytes.Equal(snap, want) {
		t.Fatalf("snapshot of %d bytes differs from the sorted page image of %d", len(snap), len(want))
	}
	again := NewBackingStore()
	if err := again.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Snapshot(), snap) {
		t.Error("snapshot does not survive LoadSnapshot")
	}
}

func TestBackingStoreProperty(t *testing.T) {
	f := func(addrs []uint32, vals []int64) bool {
		b := NewBackingStore()
		ref := make(map[int64]int64)
		for i, a := range addrs {
			addr := int64(a) &^ 7
			var v int64
			if i < len(vals) {
				v = vals[i]
			}
			b.WriteWord(addr, v)
			ref[addr] = v
		}
		for a, v := range ref {
			if b.ReadWord(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := newCache(1024, 2) // 8 sets x 2 ways
	if hit, way := c.find(0x1000); hit != nil || way == nil {
		t.Fatalf("empty cache: find = %v, %v; want a miss with a way to fill", hit, way)
	}
	c.insert(0x1000, Shared)
	if hit, way := c.find(0x1000); hit == nil || way != nil {
		t.Fatalf("after insert: find = %v, %v; want a hit", hit, way)
	}
	if hit, _ := c.find(0x1008); hit == nil || hit.tag() != 0x1000 || hit.state() != Shared {
		t.Fatalf("same line, different word: find = %+v", hit)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(128, 2) // 1 set x 2 ways, 64B lines
	c.insert(0*64, Shared)
	c.insert(128*64, Shared)
	c.find(0 * 64) // make line 0 most recent
	victimTag, vs := c.insert(256*64, Shared)
	if vs == Invalid {
		t.Fatal("full set should evict")
	}
	if victimTag != 128*64 {
		t.Fatalf("evicted %#x, want LRU line %#x", victimTag, 128*64)
	}
	if c.peek(0*64) == nil || c.peek(256*64) == nil {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestCacheRejectsNonPowerOfTwoSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newCache accepted 3 sets")
		}
	}()
	newCache(3*2*LineBytes, 2)
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(1024, 2)
	c.insert(0x40, Modified)
	if st := c.invalidate(0x40); st != Modified {
		t.Fatalf("invalidate returned %v", st)
	}
	if c.peek(0x40) != nil {
		t.Fatal("line still present after invalidate")
	}
	if st := c.invalidate(0x40); st != Invalid {
		t.Fatal("double invalidate should be Invalid")
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDDR3()
	done1 := d.Access(0, 0)
	lat1 := done1 // row closed: tRCD + tCAS + burst
	done2 := d.Access(done1, 64)
	lat2 := done2 - done1 // same row: tCAS + burst
	if lat2 >= lat1 {
		t.Fatalf("row hit (%d) not faster than row miss (%d)", lat2, lat1)
	}
	// A different row in the same bank must pay precharge.
	done3 := d.Access(done2, rowBytes*8*5)
	lat3 := done3 - done2
	if lat3 <= lat1 {
		t.Fatalf("row conflict (%d) not slower than cold access (%d)", lat3, lat1)
	}
	if d.RowHitRate() <= 0 || d.RowHitRate() >= 1 {
		t.Fatalf("row hit rate = %v", d.RowHitRate())
	}
}

func TestDRAMChannelContention(t *testing.T) {
	d := NewDDR3()
	// Two simultaneous requests to different banks still share the channel.
	a := d.Access(0, 0)
	b := d.Access(0, rowBytes) // different bank
	if b <= a {
		t.Fatalf("second request (%d) did not queue behind first (%d)", b, a)
	}
}

func TestClassicHitMissLatency(t *testing.T) {
	c := NewClassic(1, ClassicConfig{})
	coldLat := c.Access(0, Request{Addr: 0x10000, Type: Read})
	hitLat := c.Access(coldLat, Request{Addr: 0x10000, Type: Read})
	if hitLat >= coldLat {
		t.Fatalf("L1 hit (%d) not faster than cold miss (%d)", hitLat, coldLat)
	}
	if hitLat != 2000 {
		t.Fatalf("L1 hit latency = %d, want 2000", hitLat)
	}
}

func TestClassicL2CatchesL1Evictions(t *testing.T) {
	c := NewClassic(1, ClassicConfig{L1Bytes: 1024, L1Ways: 2})
	var now sim.Tick
	// Touch far more lines than L1 holds but well within L2.
	for i := int64(0); i < 64; i++ {
		now += c.Access(now, Request{Addr: 0x10000 + i*64, Type: Read})
	}
	before := c.l2Hits.Value()
	// Re-walk: L1 (16 lines) misses most of these, L2 (256KB) holds all.
	for i := int64(0); i < 64; i++ {
		now += c.Access(now, Request{Addr: 0x10000 + i*64, Type: Read})
	}
	if c.l2Hits.Value() <= before {
		t.Fatal("L2 never hit on an L1-evicted line")
	}
}

func TestClassicNoCoherenceTraffic(t *testing.T) {
	// The classic system has no invalidations: a write on core 0 leaves
	// core 1's stale copy resident (the fidelity gap the paper names).
	c := NewClassic(2, ClassicConfig{})
	c.Access(0, Request{Addr: 0x10000, Type: Read, Core: 0})
	c.Access(0, Request{Addr: 0x10000, Type: Read, Core: 1})
	c.Access(0, Request{Addr: 0x10000, Type: Write, Core: 0})
	if c.l1s[1].peek(0x10000) == nil {
		t.Fatal("classic system invalidated a remote copy; it must not model coherence")
	}
}

func TestRubyMESIReadSharing(t *testing.T) {
	r := NewRuby(2, MESITwoLevel, ClassicConfig{})
	r.Access(0, Request{Addr: 0x10000, Type: Read, Core: 0})
	r.Access(0, Request{Addr: 0x10000, Type: Read, Core: 1})
	// Both cores re-read: hits, no invalidations.
	l0 := r.Access(0, Request{Addr: 0x10000, Type: Read, Core: 0})
	l1 := r.Access(0, Request{Addr: 0x10000, Type: Read, Core: 1})
	if l0 != r.l1HitLat || l1 != r.l1HitLat {
		t.Fatalf("shared readers should hit locally: %d, %d", l0, l1)
	}
	if r.invals.Value() != 0 {
		t.Fatalf("MESI read sharing caused %v invalidations", r.invals.Value())
	}
}

func TestRubyMIExamplePingPong(t *testing.T) {
	mi := NewRuby(2, MIExample, ClassicConfig{})
	mesi := NewRuby(2, MESITwoLevel, ClassicConfig{})
	for i := 0; i < 10; i++ {
		for core := 0; core < 2; core++ {
			mi.Access(0, Request{Addr: 0x10000, Type: Read, Core: core})
			mesi.Access(0, Request{Addr: 0x10000, Type: Read, Core: core})
		}
	}
	if mi.invals.Value() <= mesi.invals.Value() {
		t.Fatalf("MI_example (%v invals) should thrash more than MESI (%v) on shared reads",
			mi.invals.Value(), mesi.invals.Value())
	}
}

func TestRubyWriteInvalidatesSharers(t *testing.T) {
	r := NewRuby(4, MESITwoLevel, ClassicConfig{})
	for core := 0; core < 4; core++ {
		r.Access(0, Request{Addr: 0x10000, Type: Read, Core: core})
	}
	before := r.invals.Value()
	r.Access(0, Request{Addr: 0x10000, Type: Write, Core: 0})
	if r.invals.Value()-before != 3 {
		t.Fatalf("write to 4-way shared line sent %v invalidations, want 3",
			r.invals.Value()-before)
	}
	// Other cores must now miss.
	for core := 1; core < 4; core++ {
		if r.l1s[core].peek(0x10000) != nil {
			t.Fatalf("core %d still holds an invalidated line", core)
		}
	}
}

// dirPages counts r's directory pages.
func dirPages(r *Ruby) (n int) {
	r.dir.each(func(int64, *dirPage) { n++ })
	return n
}

// TestRubyEvictNotifyOnUntouchedLineIsNoop: the directory stores lines
// a page at a time, so a line can have an entry it never used. An
// eviction notice for such a line, or for one in a page never touched,
// changes nothing and writes nothing back, as for a line with no entry.
func TestRubyEvictNotifyOnUntouchedLineIsNoop(t *testing.T) {
	r := NewRuby(2, MESITwoLevel, ClassicConfig{})
	r.Access(0, Request{Addr: 0x10000, Type: Write, Core: 0})
	pages, requests := dirPages(r), r.dram.requests
	for _, line := range []int64{0x10040, 0x10fc0, 0x90000, -0x40} {
		for core := 0; core < 2; core++ {
			r.evictNotify(0, core, line, Modified)
		}
		if p := r.dir.get(line >> 12); p != nil && p[dirSlot(line)] != (dirEntry{owner: -1}) {
			t.Errorf("line %#x: entry %+v after the notices", line, p[dirSlot(line)])
		}
	}
	if n := dirPages(r); n != pages {
		t.Errorf("notices created %d directory pages", n-pages)
	}
	if r.dram.requests != requests {
		t.Errorf("notices wrote back %d lines", r.dram.requests-requests)
	}
	if e := r.entry(0x10000); e.owner != 0 {
		t.Errorf("owner of the written line is %d, want 0", e.owner)
	}
}

func TestRubyExclusiveSilentUpgrade(t *testing.T) {
	r := NewRuby(2, MESITwoLevel, ClassicConfig{})
	r.Access(0, Request{Addr: 0x10000, Type: Read, Core: 0}) // granted E
	lat := r.Access(0, Request{Addr: 0x10000, Type: Write, Core: 0})
	if lat != r.l1HitLat {
		t.Fatalf("E->M upgrade paid directory latency: %d", lat)
	}
	if r.invals.Value() != 0 {
		t.Fatal("silent upgrade sent invalidations")
	}
}

func TestRubySharedUpgradePaysDirectory(t *testing.T) {
	r := NewRuby(2, MESITwoLevel, ClassicConfig{})
	r.Access(0, Request{Addr: 0x10000, Type: Read, Core: 0})
	r.Access(0, Request{Addr: 0x10000, Type: Read, Core: 1}) // both Shared now
	lat := r.Access(0, Request{Addr: 0x10000, Type: Write, Core: 0})
	if lat <= r.l1HitLat {
		t.Fatalf("S->M upgrade was free: %d", lat)
	}
	if r.invals.Value() != 1 {
		t.Fatalf("upgrade sent %v invalidations, want 1", r.invals.Value())
	}
}

func TestRubyMissSlowerThanClassicMiss(t *testing.T) {
	// The paper: Ruby is "slower but models detailed memory". A cold miss
	// through the directory must cost at least as much as classic's.
	cl := NewClassic(1, ClassicConfig{})
	rb := NewRuby(1, MESITwoLevel, ClassicConfig{})
	clLat := cl.Access(0, Request{Addr: 0x10000, Type: Read})
	rbLat := rb.Access(0, Request{Addr: 0x10000, Type: Read})
	if rbLat <= clLat {
		t.Fatalf("ruby cold miss (%d) not slower than classic (%d)", rbLat, clLat)
	}
}

func TestAccessTypeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Atomic.String() != "atomic" {
		t.Fatal("AccessType strings")
	}
}

func TestStatsExported(t *testing.T) {
	c := NewClassic(1, ClassicConfig{})
	c.Access(0, Request{Addr: 0x10000, Type: Read})
	vals := c.Stats().Values()
	if vals["system.l1.misses"] != 1 {
		t.Fatalf("stats: %v", vals)
	}
	if vals["system.mem.requests"] != 1 {
		t.Fatalf("dram stat missing: %v", vals)
	}
}

func TestL2PrefetcherHelpsSequentialWalks(t *testing.T) {
	walk := func(prefetch bool) (sim.Tick, float64) {
		c := NewClassic(1, ClassicConfig{L1Bytes: 1024, L1Ways: 2, L2Prefetch: prefetch})
		var now sim.Tick
		// Sequential line-by-line walk over 2 MiB: misses L1 and (cold) L2.
		for i := int64(0); i < 4096; i++ {
			now += c.Access(now, Request{Addr: 0x100000 + i*64, Type: Read})
		}
		return now, c.Stats().Values()["system.l2.prefetches"]
	}
	base, basePf := walk(false)
	pf, pfCount := walk(true)
	if basePf != 0 {
		t.Fatal("prefetches issued with prefetcher disabled")
	}
	if pfCount == 0 {
		t.Fatal("prefetcher never fired")
	}
	if pf >= base {
		t.Fatalf("prefetcher did not help a sequential walk: %d >= %d", pf, base)
	}
}

func TestL2PrefetcherWastesBandwidthOnRandomWalks(t *testing.T) {
	walk := func(prefetch bool) float64 {
		c := NewClassic(1, ClassicConfig{L2Prefetch: prefetch})
		addr := int64(0x100000)
		var now sim.Tick
		for i := 0; i < 2000; i++ {
			addr = (addr*6364136223846793005 + 1442695040888963407) & 0xFFFFFF &^ 7
			now += c.Access(now, Request{Addr: 0x100000 + addr, Type: Read})
		}
		return c.Stats().Values()["system.mem.requests"]
	}
	if walk(true) <= walk(false) {
		t.Fatal("prefetcher should issue extra DRAM requests on random walks")
	}
}
