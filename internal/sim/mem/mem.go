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
	"sort"

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
	// Kind returns the configuration label ("classic", "ruby.MI_example",
	// "ruby.MESI_Two_Level") used in run configs and Figure 8's axes.
	Kind() string
}

// BackingStore is the functional memory image: a sparse paged store of
// 8-byte words shared by every core. It implements isa.Memory.
type BackingStore struct {
	pages map[int64]*[512]int64 // 4 KiB pages of words
}

// NewBackingStore returns an empty store.
func NewBackingStore() *BackingStore {
	return &BackingStore{pages: make(map[int64]*[512]int64)}
}

// ReadWord returns the word at addr (byte address; word-aligned access).
func (b *BackingStore) ReadWord(addr int64) int64 {
	page, ok := b.pages[addr>>12]
	if !ok {
		return 0
	}
	return page[(addr>>3)&511]
}

// WriteWord stores val at addr.
func (b *BackingStore) WriteWord(addr int64, val int64) {
	key := addr >> 12
	page, ok := b.pages[key]
	if !ok {
		page = new([512]int64)
		b.pages[key] = page
	}
	page[(addr>>3)&511] = val
}

// Overlay copies every page of src into b, replacing pages b already
// holds. The parallel engine uses it to fold per-core private replicas
// over the authoritative store when serializing a checkpoint.
func (b *BackingStore) Overlay(src *BackingStore) {
	for key, page := range src.pages {
		cp := *page
		b.pages[key] = &cp
	}
}

// lineAddr returns the cache-line-aligned address.
func lineAddr(addr int64) int64 { return addr &^ (LineBytes - 1) }

// Snapshot serializes the backing store (for checkpoints): page count,
// then sorted (pageKey, 512 words) records.
func (b *BackingStore) Snapshot() []byte {
	keys := make([]int64, 0, len(b.pages))
	for k := range b.pages {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, 0, 8+len(keys)*(8+512*8))
	var u [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(u[:], uint64(v))
		out = append(out, u[:]...)
	}
	put(int64(len(keys)))
	for _, k := range keys {
		put(k)
		page := b.pages[k]
		for _, w := range page {
			put(w)
		}
	}
	return out
}

// LoadSnapshot replaces the store's contents with a Snapshot image.
func (b *BackingStore) LoadSnapshot(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("mem: truncated snapshot")
	}
	n := int64(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if int64(len(data)) < n*(8+512*8) {
		return fmt.Errorf("mem: snapshot needs %d pages, has %d bytes", n, len(data))
	}
	pages := make(map[int64]*[512]int64, n)
	for i := int64(0); i < n; i++ {
		key := int64(binary.LittleEndian.Uint64(data))
		data = data[8:]
		page := new([512]int64)
		for w := 0; w < 512; w++ {
			page[w] = int64(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		pages[key] = page
	}
	b.pages = pages
	return nil
}
