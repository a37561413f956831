package shard

// Info describes one shard's current primary in a routing map.
type Info struct {
	// Index is the shard's position on the ring — stable across
	// failovers; only the address and epoch behind it change.
	Index int `json:"index"`
	// Addr is the current primary broker's listen address.
	Addr string `json:"addr"`
	// Epoch is the shard's promotion count.
	Epoch uint64 `json:"epoch"`
}

// Map is the epoch-numbered routing state the fleet serves to workers
// and the status daemon: which broker owns each shard, and how stale a
// client's view is allowed to be (not at all).
type Map struct {
	// Epoch is the fleet-wide map version, bumped on every promotion.
	Epoch uint64 `json:"epoch"`
	// Shards lists every shard's current primary, indexed by ring slot.
	Shards []Info `json:"shards"`
}
