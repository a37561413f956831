package gateway

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"gem5art/internal/core/launch"
	"gem5art/internal/core/run"
	"gem5art/internal/workloads"
)

// suitePoints expands a suite's full domain in the order Jobs does.
func suitePoints(suite string) []map[string]string {
	sweep := launch.NewSweep()
	for _, a := range suiteAxes[suite] {
		sweep.Axis(a.name, a.values...)
	}
	return sweep.Points()
}

// decodeInto unmarshals a job payload as its worker handler does, and
// checks that the decoded value encodes back to the same bytes, so no
// field is dropped or renamed on the way.
func decodeInto(t *testing.T, payload json.RawMessage, v any) {
	t.Helper()
	if err := json.Unmarshal(payload, v); err != nil {
		t.Fatalf("payload %s: %v", payload, err)
	}
	if again, _ := json.Marshal(v); !bytes.Equal(again, payload) {
		t.Fatalf("payload %s decodes to %s", payload, again)
	}
}

// TestLaunchSpecPayloadsRoundTrip: every point of a full boot and gpu
// launch reaches the worker handler as the cell the point names.
func TestLaunchSpecPayloadsRoundTrip(t *testing.T) {
	for _, suite := range []string{"boot", "gpu"} {
		spec := LaunchSpec{Suite: suite}
		jobs, err := spec.Jobs("tenant", "launch")
		if err != nil {
			t.Fatal(err)
		}
		points := suitePoints(suite)
		if len(jobs) != len(points) {
			t.Fatalf("%s: %d jobs for %d points", suite, len(jobs), len(points))
		}
		for i, p := range points {
			switch suite {
			case "boot":
				var j run.BootJob
				decodeInto(t, jobs[i].Payload, &j)
				cores, _ := strconv.Atoi(p["cores"])
				want := run.BootJob{Kernel: p["kernel"], CPU: p["cpu"], Mem: p["mem"], Cores: cores, Boot: p["boot"]}
				if j != want {
					t.Fatalf("boot point %v decodes to %+v", p, j)
				}
			case "gpu":
				var j run.GPUJob
				decodeInto(t, jobs[i].Payload, &j)
				if j.App != p["app"] || j.Alloc != p["alloc"] {
					t.Fatalf("gpu point %v decodes to %+v", p, j)
				}
				if _, err := workloads.FindGPUWorkload(j.App); err != nil {
					t.Fatalf("gpu point %v: %v", p, err)
				}
			}
		}
	}
}
