package database

import (
	"time"

	"gem5art/internal/telemetry"
)

// Per-operation latency histograms for the embedded database, labeled
// by operation. Buckets are FastBuckets (10µs..100ms): every operation
// is an in-memory scan or a local file write, so the default
// request-latency buckets would collapse everything into the first bin.
var dbOpDuration = telemetry.Default.HistogramVec("gem5art_db_op_duration_seconds",
	"latency of embedded-database operations by kind",
	telemetry.FastBuckets, "op")

// observeOp records one operation's latency; use as
// `defer observeOp("find", time.Now())`.
func observeOp(op string, start time.Time) {
	dbOpDuration.With(op).Observe(time.Since(start).Seconds())
}

// Compaction cadence and scan avoidance. Degraded mode and the
// scrubber's findings are not series: /healthz and /api/scrub serve
// them from storage.DegradedError and ScrubReport.
var (
	dbCompactions = telemetry.Default.CounterVec("gem5art_db_compactions_total",
		"journal compactions folded into snapshots, by collection", "collection")
	dbIndexLookups = telemetry.Default.CounterVec("gem5art_db_index_lookups_total",
		"queries answered from a hash index, by outcome", "result")
	dbFullScans = telemetry.Default.Counter("gem5art_db_full_scans_total",
		"queries answered by scanning the collection")
)

// countIndexLookup records one index-served query.
func countIndexLookup(hit bool) {
	if hit {
		dbIndexLookups.With("hit").Inc()
	} else {
		dbIndexLookups.With("miss").Inc()
	}
}
