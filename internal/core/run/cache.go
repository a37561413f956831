package run

import (
	"encoding/json"
	"time"

	"gem5art/internal/core/artifact"
	"gem5art/internal/database"
	"gem5art/internal/simcache"
)

// CacheKey returns the run's canonical content key: the stable hash
// over its input closure (run kind, artifact hashes, parameters,
// sim-version salt) computed at creation and recorded on the run
// document as cache_key.
func (r *Run) CacheKey() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheKey
}

func (r *Run) cacheRef() *simcache.Cache {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache
}

// computeCacheKey hashes the run's input closure. Called at creation,
// before the run is shared.
func (r *Run) computeCacheKey() string {
	arts := []*artifact.Artifact{
		r.Spec.Gem5Artifact,
		r.Spec.Gem5GitArtifact,
		r.Spec.RunScriptGitArtifact,
		r.Spec.LinuxBinaryArtifact,
		r.Spec.DiskImageArtifact,
	}
	hashes := make([]string, 0, len(arts))
	for _, a := range arts {
		if a != nil {
			hashes = append(hashes, a.Hash)
		}
	}
	salt := ""
	if r.Spec.Parallel > 0 {
		// The parallel engine's results differ from the monolithic
		// engine's by design; never replay one as the other. The worker
		// count is excluded: results are worker-count-independent.
		salt = simcache.ParallelSalt
	}
	params := r.Spec.Params
	if r.Spec.Energy != "" {
		// An energy-enabled run produces a different result document
		// (energy.* stats), and two runs with different coefficients
		// must not replay each other, so the resolved model's content
		// hash joins the key. Resolution errors fall back to the raw
		// spec string — CreateFSRun already rejected invalid specs.
		tag := "energy-model=" + r.Spec.Energy
		if m, err := r.energyModel(); err == nil && m != nil {
			tag = "energy-model=" + m.Name + ":" + m.Salt()
		}
		params = append(append([]string(nil), params...), tag)
	}
	return simcache.KeyInputs{
		Kind:      r.Mode + ":" + r.Spec.RunScript,
		Artifacts: hashes,
		Params:    params,
		Salt:      salt,
	}.Key()
}

// replay completes a run its cache already answers, at creation and
// before the run is shared: the cached result, one done attempt and the
// archive hashes, so the run's first commit is its terminal one. It
// reports false on a miss — and on a malformed entry, which is left for
// runMemoized to invalidate.
func (r *Run) replay() bool {
	doc, ok := r.cache.Probe(r.cacheKey)
	if !ok {
		return false
	}
	res, err := resultsFromDoc(doc)
	if err != nil {
		return false
	}
	now := time.Now()
	res.FromCache = true
	r.Status, r.Results = Done, res
	r.WallStart, r.WallEnd = now, now
	r.Attempts = []Attempt{{Index: 1, Start: now, End: now, Status: Done}}
	r.archiveLocked()
	return true
}

// runMemoized executes the handler through the simulation cache: an
// identical run (same key) that already completed — in this process, in
// this launch, or in any launch sharing the database — replays its
// cached result instead of simulating, and N concurrent identical runs
// coalesce onto one execution. Handler errors are never cached.
func (r *Run) runMemoized(h Handler) (*Results, error) {
	r.mu.Lock()
	c, key := r.cache, r.cacheKey
	r.mu.Unlock()
	if c == nil || key == "" {
		return h(r)
	}
	doc, cached, err := c.GetOrCompute(key, func() (database.Doc, error) {
		res, err := h(r)
		if err != nil {
			return nil, err
		}
		return resultsDoc(res), nil
	})
	if err != nil {
		return nil, err
	}
	res, derr := resultsFromDoc(doc)
	if derr != nil {
		// A malformed cache entry must not fail the run: drop it and
		// simulate for real.
		c.Invalidate(key)
		return h(r)
	}
	res.FromCache = cached
	return res, nil
}

// resultsDoc renders Results as a cacheable document (JSON round-trip,
// so the cached form matches what the persistent tier stores anyway).
func resultsDoc(res *Results) database.Doc {
	raw, err := json.Marshal(res)
	if err != nil {
		return database.Doc{"Outcome": res.Outcome}
	}
	var d database.Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return database.Doc{"Outcome": res.Outcome}
	}
	return d
}

func resultsFromDoc(d database.Doc) (*Results, error) {
	raw, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	var res Results
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
