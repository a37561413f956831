// Package mem implements the two memory systems the paper's experiments
// sweep over, mirroring gem5's split:
//
//   - Classic: a fast crossbar-based hierarchy (private L1s, shared L2,
//     DRAM) that does not model coherence traffic ("fast but lacks
//     coherence fidelity").
//   - Ruby: a directory-based coherent hierarchy with two protocols,
//     MI_example (two-state, invalidation-heavy) and MESI_Two_Level
//     (shared readers), layered over the same DRAM model.
//
// Both present the same interface to CPU models: a timed Access that
// returns the latency of a memory operation while updating cache and DRAM
// state, plus functional reads/writes against a shared backing store.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gem5art/internal/sim"
)

// LineBytes is the cache line size used throughout.
const LineBytes int64 = 64

// AccessType distinguishes the operations the coherence protocols care
// about.
type AccessType uint8

// Access types.
const (
	Read AccessType = iota
	Write
	Atomic // read-modify-write; treated as a write for coherence
)

func (t AccessType) String() string {
	switch t {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "atomic"
	}
}

// Request is one memory operation from a core.
type Request struct {
	Addr int64
	Type AccessType
	Core int
}

// System is the interface every memory hierarchy implements.
type System interface {
	// Access performs a timed access at simulated time now and returns
	// its latency. Implementations update cache/coherence/DRAM state.
	Access(now sim.Tick, req Request) sim.Tick
	// Store exposes the functional backing store shared by all cores.
	Store() *BackingStore
	// Stats returns the hierarchy's statistics group.
	Stats() *sim.StatGroup
	// Release clears the hierarchy's caches, directory and backing
	// store and hands their memory back for the next system to reuse.
	// Call it after the last read of the store; statistics stay
	// readable. Access panics afterwards, and a second Release does
	// nothing.
	Release()
}

// BackingStore is the functional memory image: a sparse paged store of
// 8-byte words shared by every core. It implements isa.Memory.
//
// ReadWord writes nothing, so reads may run concurrently; WriteWord may
// make a page and so must not run beside any other access.
type BackingStore struct {
	pages    pageTable[[512]int64] // 4 KiB pages of words
	released bool
}

// NewBackingStore returns an empty store.
func NewBackingStore() *BackingStore { return &BackingStore{} }

// ReadWord returns the word at addr (byte address; word-aligned access).
func (b *BackingStore) ReadWord(addr int64) int64 {
	if page := b.pages.get(addr >> 12); page != nil {
		return page[(addr>>3)&511]
	}
	return 0
}

// WriteWord stores val at addr.
func (b *BackingStore) WriteWord(addr int64, val int64) {
	key := addr >> 12
	page := b.pages.get(key)
	if page == nil {
		if b.released {
			panic("mem: write to a released store")
		}
		page = pagePool.Get().(*[512]int64)
		b.pages.put(key, page)
	}
	page[(addr>>3)&511] = val
}

// lineAddr returns the cache-line-aligned address.
func lineAddr(addr int64) int64 { return addr &^ (LineBytes - 1) }

// Snapshot serializes the backing store (for checkpoints): page count,
// then sorted (pageKey, 512 words) records.
func (b *BackingStore) Snapshot() []byte {
	var keys []int64
	b.pages.each(func(k int64, _ *[512]int64) { keys = append(keys, k) })
	slices.Sort(keys)
	out := make([]byte, 0, 8+len(keys)*(8+512*8))
	var u [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(u[:], uint64(v))
		out = append(out, u[:]...)
	}
	put(int64(len(keys)))
	for _, k := range keys {
		put(k)
		for _, w := range b.pages.get(k) {
			put(w)
		}
	}
	return out
}

// LoadSnapshot replaces the store's contents with a Snapshot image. The
// pages it replaces go back to the page pool.
func (b *BackingStore) LoadSnapshot(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("mem: truncated snapshot")
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	// Divide rather than multiply: a hostile count must not overflow
	// the check.
	if n > uint64(len(data)/(8+512*8)) {
		return fmt.Errorf("mem: snapshot needs %d pages, has %d bytes", n, len(data))
	}
	b.Release()
	b.released = false
	for i := uint64(0); i < n; i++ {
		key := int64(binary.LittleEndian.Uint64(data))
		data = data[8:]
		page := pagePool.Get().(*[512]int64)
		for w := 0; w < 512; w++ {
			page[w] = int64(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		b.pages.put(key, page)
	}
	return nil
}
