package shard

import (
	"fmt"
	"testing"
)

func TestRingDeterministicAndStable(t *testing.T) {
	a, b := NewRing(4, 0), NewRing(4, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("run-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("rings disagree on %q", key)
		}
	}
}

func TestRingCoversAllShards(t *testing.T) {
	r := NewRing(4, 0)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[r.Owner(fmt.Sprintf("run-%d", i))]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no keys", s)
		}
		// FNV + 64 vnodes is not perfectly uniform, but no shard should
		// be starved or hold a majority at 4 shards.
		if n < 400 || n > 2200 {
			t.Fatalf("shard %d owns %d of 4000 keys — distribution collapsed: %v", s, n, counts)
		}
	}
}

func TestRingConsistency(t *testing.T) {
	// Growing the ring by one shard must move only a fraction of keys —
	// the property that makes the hash "consistent".
	small, large := NewRing(4, 0), NewRing(5, 0)
	moved := 0
	const keys = 4000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("run-%d", i)
		if small.Owner(key) != large.Owner(key) {
			moved++
		}
	}
	// Ideal movement is keys/5 = 800; a modulo hash would move ~3200.
	if moved > keys/2 {
		t.Fatalf("%d of %d keys moved adding one shard — not consistent hashing", moved, keys)
	}
}

func TestRingSingleShard(t *testing.T) {
	r := NewRing(1, 8)
	for i := 0; i < 100; i++ {
		if got := r.Owner(fmt.Sprintf("k%d", i)); got != 0 {
			t.Fatalf("Owner = %d, want 0", got)
		}
	}
}
