package gateway

import "gem5art/internal/telemetry"

// Gateway metrics, labeled by tenant so one scrape answers "who is
// submitting and who is being refused". A tenant's live in-flight and
// queued counts are served at /api/whoami, not here. Labels keep low
// cardinality: tenant IDs come from the operator's config, reasons from
// a fixed enumeration.
var (
	gwLaunches = telemetry.Default.CounterVec("gem5art_gateway_launches_total",
		"launches accepted through the submit API", "tenant")
	gwAdmitted = telemetry.Default.CounterVec("gem5art_gateway_jobs_admitted_total",
		"jobs granted an in-flight slot by admission control", "tenant")
	gwRejected = telemetry.Default.CounterVec("gem5art_gateway_jobs_rejected_total",
		"launches refused by admission control, by quota dimension",
		"tenant", "reason")
)
