package sim

import (
	"time"

	"gem5art/internal/telemetry"
)

// The simulator's telemetry is batched: event loops and commit paths
// count locally and flush to the process-wide registry every
// telemetryBatch events (and at loop exit), so the hot path pays one
// register increment per event rather than one atomic CAS.

var (
	simEvents = telemetry.Default.Counter("gem5art_sim_events_total",
		"discrete events executed across all event queues")
	simInstructions = telemetry.Default.Counter("gem5art_sim_instructions_total",
		"instructions committed across all simulated systems")
	simHostRate = telemetry.Default.Gauge("gem5art_sim_host_rate_ticks_per_second",
		"simulated ticks advanced per host second in the most recent System.Run")
)

// telemetryBatch bounds how many locally counted events accumulate
// before flushing to the shared counter, keeping long Run calls live on
// /metrics without per-event atomics.
const telemetryBatch = 1 << 14

// flushEvents adds a batch of executed-event counts to the registry.
func flushEvents(n uint64) {
	if n > 0 {
		simEvents.Add(float64(n))
	}
}

// CountInstructions credits n committed instructions to the global
// instruction counter. The CPU models call it with batched deltas.
func CountInstructions(n uint64) {
	if n > 0 {
		simInstructions.Add(float64(n))
	}
}

// RunScope brackets one System.Run for telemetry: the returned func
// publishes the host simulation rate (simulated ticks per host second).
func RunScope() (done func(advanced Tick)) {
	start := time.Now()
	return func(advanced Tick) {
		if host := time.Since(start).Seconds(); host > 0 {
			simHostRate.Set(float64(advanced) / host)
		}
	}
}
