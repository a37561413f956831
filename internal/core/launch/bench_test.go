package launch

import (
	"testing"

	"gem5art/internal/core/run"
	"gem5art/internal/simcache"
)

// BenchmarkWarmRelaunch re-launches a 64-spec hack-back matrix on a
// journaled temp store whose cache already holds every result, so each
// run is a hit known at launch. records/run is the runs-journal records
// one relaunched run commits, and fsyncs/run the runs-journal fsyncs:
// the contract is 1 record and 1/64 fsync, one commit for the batch.
func BenchmarkWarmRelaunch(b *testing.B) {
	const n = 64
	db, fs := countedStore(b)
	reg, base := buildEnvOn(b, db)
	cache := simcache.New(db, simcache.Options{})
	specs := hackMatrix(base, n)
	launchCached(b, reg, cache, specs) // cold populate
	b.ReportAllocs()
	b.ResetTimer()
	records0, syncs0 := fs.counts(run.Collection)
	for i := 0; i < b.N; i++ {
		launchCached(b, reg, cache, specs)
	}
	records1, syncs1 := fs.counts(run.Collection)
	runs := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/runs, "ns/run")
	b.ReportMetric(float64(records1-records0)/runs, "records/run")
	b.ReportMetric(float64(syncs1-syncs0)/runs, "fsyncs/run")
}
