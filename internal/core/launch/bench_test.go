package launch

import (
	"testing"

	"gem5art/internal/core/run"
	"gem5art/internal/simcache"
)

// BenchmarkWarmRelaunch re-launches a 64-spec hack-back matrix on a
// journaled temp store whose cache already holds every result, so each
// run is a hit known at launch. records/run is the runs-journal records
// one relaunched run commits; the contract is 1.
func BenchmarkWarmRelaunch(b *testing.B) {
	const n = 64
	db, fs := countedStore(b)
	reg, base := buildEnvOn(b, db)
	cache := simcache.New(db, simcache.Options{})
	specs := hackMatrix(base, n)
	launchCached(b, reg, cache, specs) // cold populate
	b.ReportAllocs()
	b.ResetTimer()
	before, _ := fs.counts(run.Collection)
	for i := 0; i < b.N; i++ {
		launchCached(b, reg, cache, specs)
	}
	after, _ := fs.counts(run.Collection)
	runs := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/runs, "ns/run")
	b.ReportMetric(float64(after-before)/runs, "records/run")
}
