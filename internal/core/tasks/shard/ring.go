// Package shard partitions the broker control plane: jobs are routed
// to one of N shard brokers by consistent hashing over their run key,
// each shard's durable queue journal is shipped to a standby store that
// replays it, and a coordinator promotes the standby when the primary's
// lease expires. Routing is epoch-numbered: every promotion bumps the
// fleet epoch, and workers re-resolve the map on every dial.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per shard. More vnodes mean
// a smoother key distribution and smaller movement when the shard count
// changes; 64 keeps Owner lookups cheap while staying within a few
// percent of uniform at 4–16 shards.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over shard indices. It is immutable
// after construction: rebalancing builds a new ring.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint32
	shard int
}

// NewRing builds a ring of the given shard count with vnodes virtual
// nodes per shard (<= 0 uses DefaultVNodes).
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the ring's shard count.
func (r *Ring) Shards() int { return r.shards }

// Owner maps a key — a job ID, which for distributed runs is the
// simcache run key — to the shard that owns it: the first virtual node
// clockwise from the key's hash.
func (r *Ring) Owner(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

func hashKey(key string) uint32 {
	f := fnv.New32a()
	_, _ = f.Write([]byte(key))
	return f.Sum32()
}
