package sim

import (
	"sync/atomic"
	"time"

	"gem5art/internal/telemetry"
)

// The simulator's telemetry is batched: event loops and commit paths
// count locally and flush to the process-wide registry every
// telemetryBatch events (and at loop exit), so the hot path pays one
// register increment per event rather than one atomic CAS. EnableTelemetry
// exists so the overhead can be benchmarked (see cmd/gem5bench); it is
// on by default and costs <5% even when enabled and unscraped.

var (
	telemetryOn atomic.Bool

	simEvents = telemetry.Default.Counter("gem5art_sim_events_total",
		"discrete events executed across all event queues")
	simInstructions = telemetry.Default.Counter("gem5art_sim_instructions_total",
		"instructions committed across all simulated systems")
	simWindows = telemetry.Default.CounterVec("gem5art_sim_windows_total",
		"scheduler windows executed, by where the cost gate placed them", "mode")
	simWindowsInline = simWindows.With("inline")
	simWindowsPool   = simWindows.With("pool")
	simMessages      = telemetry.Default.Counter("gem5art_sim_messages_total",
		"port messages delivered at scheduler window barriers")
	simHostRate = telemetry.Default.Gauge("gem5art_sim_host_rate_ticks_per_second",
		"simulated ticks advanced per host second in the most recent System.Run")
	simActiveRuns = telemetry.Default.Gauge("gem5art_sim_active_runs",
		"simulations currently inside System.Run")
)

func init() { telemetryOn.Store(true) }

// EnableTelemetry turns the simulator's counter flushing on or off.
// It exists for overhead benchmarking; production code leaves it on.
func EnableTelemetry(on bool) { telemetryOn.Store(on) }

// TelemetryEnabled reports whether simulator counters flush to the
// registry.
func TelemetryEnabled() bool { return telemetryOn.Load() }

// telemetryBatch bounds how many locally counted events accumulate
// before flushing to the shared counter, keeping long Run calls live on
// /metrics without per-event atomics.
const telemetryBatch = 1 << 14

// flushEvents adds a batch of executed-event counts to the registry.
func flushEvents(n uint64) {
	if n > 0 && telemetryOn.Load() {
		simEvents.Add(float64(n))
	}
}

// flushWindows adds a batch of scheduler window and message counts to the
// registry; pool of the windows ran on the worker pool, the rest inline.
func flushWindows(windows, pool, messages uint64) {
	if !telemetryOn.Load() {
		return
	}
	simWindowsInline.Add(float64(windows - pool))
	simWindowsPool.Add(float64(pool))
	simMessages.Add(float64(messages))
}

// CountInstructions credits n committed instructions to the global
// instruction counter. The CPU models call it with batched deltas.
func CountInstructions(n uint64) {
	if n > 0 && telemetryOn.Load() {
		simInstructions.Add(float64(n))
	}
}

// RunScope brackets one System.Run for telemetry: it marks the
// simulation active and, on the returned func, publishes the host
// simulation rate (simulated ticks per host second).
func RunScope() (done func(advanced Tick)) {
	if !telemetryOn.Load() {
		return func(Tick) {}
	}
	simActiveRuns.Inc()
	start := time.Now()
	return func(advanced Tick) {
		simActiveRuns.Dec()
		if host := time.Since(start).Seconds(); host > 0 {
			simHostRate.Set(float64(advanced) / host)
		}
	}
}

// BridgeStats exposes a gem5-style StatGroup on /metrics as the
// read-through family gem5art_sim_stat{system,stat}: values are read at
// scrape time, so simulator statistics appear without duplicating
// counters. The group's values are plain float64s mutated by the
// simulation thread; bridge groups whose simulation has finished (or is
// paused) to avoid torn reads during a scrape.
func BridgeStats(reg *telemetry.Registry, system string, g *StatGroup) {
	reg.Collector("gem5art_sim_stat",
		"simulator statistics bridged from gem5-style stat groups",
		func(emit func(labels []telemetry.Label, value float64)) {
			for name, v := range g.Values() {
				emit([]telemetry.Label{
					{Name: "system", Value: system},
					{Name: "stat", Value: telemetry.SanitizeName(name)},
				}, v)
			}
		})
}
