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

	shardReplicationLag = telemetry.Default.GaugeVec(
		"gem5art_shard_replication_lag_bytes",
		"Journal bytes written on the primary but not yet applied on the standby.",
		"shard")
)
