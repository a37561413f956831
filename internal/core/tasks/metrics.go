package tasks

import "gem5art/internal/telemetry"

// Package-level metrics for the task layer, registered in the
// process-wide telemetry registry. Queue-depth gauges are deltas
// (Inc/Dec around enqueue/dequeue), so several pools or brokers in one
// process report their aggregate depth — which is what a scrape of the
// whole process means anyway.
var (
	poolQueueDepth = telemetry.Default.Gauge("gem5art_tasks_queue_depth",
		"tasks queued in in-process pools, not yet picked up by a worker")
	poolJobDuration = telemetry.Default.Histogram("gem5art_tasks_job_duration_seconds",
		"wall-clock duration of one pool task (all attempts, including backoff)",
		telemetry.DefBuckets)
	poolRetries = telemetry.Default.Counter("gem5art_tasks_retries_total",
		"pool task re-executions triggered by the retry policy")

	brokerQueueDepth = telemetry.Default.Gauge("gem5art_broker_queue_depth",
		"jobs queued in brokers, not yet assigned to a worker")
	brokerHeartbeats = telemetry.Default.Counter("gem5art_broker_heartbeats_total",
		"heartbeat messages received from workers")
	brokerLeaseRevocations = telemetry.Default.Counter("gem5art_broker_lease_revocations_total",
		"assignments revoked because their execution lease expired")
	brokerWorkerRevocations = telemetry.Default.Counter("gem5art_broker_worker_revocations_total",
		"workers revoked after missing their heartbeat deadline")
	brokerRetries = telemetry.Default.Counter("gem5art_broker_retries_total",
		"jobs requeued by the broker's retry policy")
	brokerDuplicateResults = telemetry.Default.Counter("gem5art_broker_duplicate_results_total",
		"result frames dropped because the result was already applied")
	brokerProtocolErrors = telemetry.Default.Counter("gem5art_broker_protocol_errors_total",
		"malformed protocol frames answered with an error reply and a connection close")
)
