package shard

import "gem5art/internal/telemetry"

// Shard control-plane metrics, exported on the default registry so the
// status daemon and the distribute CLI's /metrics endpoint pick them up
// alongside the broker and worker series.
var (
	shardFailovers = telemetry.Default.Counter(
		"gem5art_shard_failovers_total",
		"Standby promotions performed after a shard primary's lease expired.")

	shardEpoch = telemetry.Default.Gauge(
		"gem5art_shard_epoch",
		"Fleet-wide routing map epoch; bumps on every promotion.")

	shardReplicationSegments = telemetry.Default.CounterVec(
		"gem5art_shard_replication_segments_total",
		"Journal segments shipped from shard primaries to their standbys.",
		"shard")

	shardReplicationRecords = telemetry.Default.CounterVec(
		"gem5art_shard_replication_records_total",
		"Journal records replayed onto shard standbys.",
		"shard")

	shardReplicationResyncs = telemetry.Default.CounterVec(
		"gem5art_shard_replication_resyncs_total",
		"Full snapshot resyncs after a primary journal reset or first contact.",
		"shard")

	shardReplicationLag = telemetry.Default.GaugeVec(
		"gem5art_shard_replication_lag_bytes",
		"Journal bytes written on the primary but not yet applied on the standby.",
		"shard")

	shardDuplicateResults = telemetry.Default.Counter(
		"gem5art_shard_duplicate_results_total",
		"Results suppressed by the fleet's exactly-once delivery filter.")

	shardFailoverResubmits = telemetry.Default.Counter(
		"gem5art_shard_failover_resubmits_total",
		"Outstanding jobs resubmitted to a freshly promoted shard primary.")
)
