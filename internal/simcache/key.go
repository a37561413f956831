// Package simcache is the content-addressed simulation cache: the
// reproducibility machinery (every run is fully identified by the
// hashes of its input artifacts plus its parameters, §IV) turned into a
// speed mechanism. A run's canonical key is a stable content hash over
// its input closure; the cache memoizes results under that key in a
// database.Store, with singleflight deduplication, so the same
// experiment is never simulated twice — not within a launch, not across
// launches sharing a database. The same machinery archives boot checkpoints under
// boot-equivalence class keys so a matrix of full-system runs sharing a
// kernel/disk/core/mem boot prefix pays for exactly one boot.
package simcache

import (
	"fmt"
	"sort"
	"strings"

	"gem5art/internal/database"
)

// SimVersionSalt identifies the simulator semantics cached results were
// produced under. It participates in every run key and is recorded on
// every persistent cache document: bumping it both changes all keys and
// lets an opened cache sweep entries minted under older salts, the
// explicit invalidation path for simulator changes that alter results
// without touching any input artifact.
const SimVersionSalt = "gem5art-sim-v1"

// KeyInputs is the input closure a run key is computed over. The key is
// order-insensitive in Artifacts and Params: both are sorted before
// hashing, so launch scripts need not agree on parameter order for two
// identical experiments to collide (which is the point).
type KeyInputs struct {
	Kind      string   // run kind, e.g. "fs:configs/run_hackback.py"
	Artifacts []string // content hashes of every input artifact
	Params    []string // "key=value" run parameters
}

// Key renders the canonical content hash of the closure.
func (k KeyInputs) Key() string {
	arts := append([]string(nil), k.Artifacts...)
	sort.Strings(arts)
	params := append([]string(nil), k.Params...)
	sort.Strings(params)
	var sb strings.Builder
	sb.WriteString("runkey\x00")
	sb.WriteString(k.Kind)
	sb.WriteString("\x00")
	for _, a := range arts {
		sb.WriteString(a)
		sb.WriteString("\x1f")
	}
	sb.WriteString("\x00")
	for _, p := range params {
		sb.WriteString(p)
		sb.WriteString("\x1f")
	}
	sb.WriteString("\x00")
	sb.WriteString(SimVersionSalt)
	return database.HashBytes([]byte(sb.String()))
}

// BootClass is a boot-equivalence class: every full-system run whose
// phase-1 boot is determined by the same kernel, disk image, core
// count, and phase-1 memory configuration can restore from one shared
// checkpoint regardless of what it runs afterwards.
type BootClass struct {
	KernelHash string `json:"kernel_hash"`
	DiskHash   string `json:"disk_hash"`
	Cores      int    `json:"cores"`
	Mem        string `json:"mem"` // phase-1 memory configuration
}

// Key returns the class's stable content key.
func (b BootClass) Key() string {
	return database.HashBytes([]byte(fmt.Sprintf("bootclass\x00%s\x00%s\x00%d\x00%s\x00%s",
		b.KernelHash, b.DiskHash, b.Cores, b.Mem, SimVersionSalt)))
}
