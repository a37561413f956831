package run

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
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
// archive hashes, so the run's first commit is its terminal one. A miss
// — or a malformed entry, which runMemoized invalidates — leaves the run
// queued.
func (r *Run) replay() {
	doc, ok := r.cache.Probe(r.cacheKey)
	if !ok {
		return
	}
	res, err := resultsFromDoc(doc)
	if err != nil {
		return
	}
	now := time.Now()
	res.FromCache = true
	r.Status, r.Results = Done, res
	r.WallStart, r.WallEnd = now, now
	r.Attempts = []Attempt{{Index: 1, Start: now, End: now, Status: Done}}
	r.archiveLocked()
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
	compute := func() (database.Doc, error) {
		res, err := h(r)
		if err != nil {
			return nil, err
		}
		return resultsDoc(res), nil
	}
	doc, cached, err := c.GetOrCompute(key, compute)
	if err != nil {
		return nil, err
	}
	res, err := resultsFromDoc(doc)
	if err != nil {
		// A malformed cache entry must not fail the run: drop it, then
		// simulate for real and cache the well-formed result.
		c.Invalidate(key)
		if doc, cached, err = c.GetOrCompute(key, compute); err != nil {
			return nil, err
		}
		if res, err = resultsFromDoc(doc); err != nil {
			return nil, err
		}
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

// resultsFromDoc decodes a cached result document, as json.Unmarshal
// of its JSON into Results would but without the round trip. It reads
// the values a JSON-decoded document holds — strings, bools, float64,
// and Stats as map[string]any, where a null stat reads 0 — and fails
// where json would: on a value of the wrong type, or on an Insts that
// is negative, fractional or past uint64. Keys that name no field are
// ignored. A key that names one only case-insensitively, which
// resultsDoc never writes, sends the document through json, whose
// precedence rules then decide.
func resultsFromDoc(d database.Doc) (*Results, error) {
	var res Results
	for k, v := range d {
		var err error
		switch k {
		case "Outcome":
			err = decodeField(&res.Outcome, k, v)
		case "SimSeconds":
			err = decodeField(&res.SimSeconds, k, v)
		case "Insts":
			// json writes the float64 in decimal and ParseUint reads it
			// back: only a whole number in [0, 2^64) with no sign (-0
			// is written "-0") survives.
			var f float64
			err = decodeField(&f, k, v)
			if err == nil && (math.Signbit(f) || f >= 1<<64 || f != math.Trunc(f)) {
				err = fmt.Errorf("run: cached result: Insts %v is not a uint64", f)
			}
			res.Insts = uint64(f)
		case "Stats":
			res.Stats, err = decodeStats(v)
		case "Console":
			err = decodeField(&res.Console, k, v)
		case "ConfigINI":
			err = decodeField(&res.ConfigINI, k, v)
		case "StatsHash":
			err = decodeField(&res.StatsHash, k, v)
		case "ConsoleHash":
			err = decodeField(&res.ConsoleHash, k, v)
		case "ConfigHash":
			err = decodeField(&res.ConfigHash, k, v)
		case "ResumedFrom":
			err = decodeField(&res.ResumedFrom, k, v)
		case "FromCache":
			err = decodeField(&res.FromCache, k, v)
		case "BootClass":
			err = decodeField(&res.BootClass, k, v)
		case "SharedBoot":
			err = decodeField(&res.SharedBoot, k, v)
		default:
			if _, ok := reflect.TypeFor[Results]().FieldByNameFunc(func(f string) bool {
				return strings.EqualFold(f, k)
			}); ok {
				return resultsFromJSON(d)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// decodeField stores v in *dst when it holds a T. A null leaves *dst
// as it is, as json leaves a field it reads null into.
func decodeField[T any](dst *T, k string, v any) error {
	switch t := v.(type) {
	case nil:
	case T:
		*dst = t
	default:
		return fmt.Errorf("run: cached result: %s is a %T, not a %T", k, v, *dst)
	}
	return nil
}

// decodeStats reads the Stats value: null is a nil map, and a null
// stat is 0, as json reads it into map[string]float64.
func decodeStats(v any) (map[string]float64, error) {
	if v == nil {
		return nil, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("run: cached result: Stats is a %T, not an object", v)
	}
	stats := make(map[string]float64, len(m))
	for name, s := range m {
		switch f := s.(type) {
		case float64:
			stats[name] = f
		case nil:
			stats[name] = 0
		default:
			return nil, fmt.Errorf("run: cached result: stat %q is a %T, not a float64", name, s)
		}
	}
	return stats, nil
}

// resultsFromJSON is the JSON round trip resultsFromDoc stands in for.
func resultsFromJSON(d database.Doc) (*Results, error) {
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
