package gateway

import (
	"encoding/json"
	"fmt"
	"strconv"

	"gem5art/internal/core/launch"
	"gem5art/internal/core/run"
	"gem5art/internal/core/tasks"
	"gem5art/internal/sim/cpu"
	"gem5art/internal/sim/gpu"
	"gem5art/internal/sim/kernel"
	"gem5art/internal/workloads"
)

// LaunchSpec is the submit API's request body: a named parameter sweep
// over one of the distributed job suites. Axes expand to the cross
// product exactly like a launch script's nested loops; an omitted axis
// sweeps the suite's full domain, so the minimal spec
// {"suite":"boot"} reproduces the whole Figure 8 grid.
type LaunchSpec struct {
	// Name labels the launch in the tenant's namespace. Optional; the
	// launch ID is always server-assigned.
	Name string `json:"name,omitempty"`
	// Suite selects the worker handler: "boot" or "gpu".
	Suite string `json:"suite"`
	// Axes narrows the sweep. Keys for boot: kernel, cpu, mem, cores,
	// boot. Keys for gpu: app, alloc. Values must lie in the suite's
	// domain.
	Axes map[string][]string `json:"axes,omitempty"`
	// Limit truncates the expansion after this many points (0 = all),
	// keeping exploratory submits cheap.
	Limit int `json:"limit,omitempty"`
}

// suiteAxes maps each suite to its axis order and full domains. Axis
// order is fixed so the same spec always expands to the same job list.
var suiteAxes = map[string][]axisDomain{
	"boot": {
		{"kernel", domainStrings(kernel.BootKernels)},
		{"cpu", domainStrings(cpu.AllModels)},
		{"mem", kernel.MemSystems},
		{"cores", domainInts(kernel.CoreCounts)},
		{"boot", domainStrings(kernel.BootTypes)},
	},
	"gpu": {
		{"app", gpuApps()},
		{"alloc", []string{string(gpu.Simple), string(gpu.Dynamic)}},
	},
}

type axisDomain struct {
	name   string
	values []string
}

func domainStrings[T ~string](vs []T) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

func domainInts(vs []int) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.Itoa(v)
	}
	return out
}

func gpuApps() []string { return workloads.GPUWorkloadNames() }

// Validate checks the spec against the suite domains and returns the
// expanded sweep size. Validation errors surface as HTTP 400; they name
// the offending axis and value so a client can fix the spec without
// reading server code.
func (s *LaunchSpec) Validate() (int, error) {
	axes, ok := suiteAxes[s.Suite]
	if !ok {
		return 0, fmt.Errorf("unknown suite %q (want boot or gpu)", s.Suite)
	}
	domains := make(map[string]map[string]bool, len(axes))
	for _, a := range axes {
		set := make(map[string]bool, len(a.values))
		for _, v := range a.values {
			set[v] = true
		}
		domains[a.name] = set
	}
	size := 1
	for name, vals := range s.Axes {
		domain, ok := domains[name]
		if !ok {
			return 0, fmt.Errorf("suite %q has no axis %q", s.Suite, name)
		}
		if len(vals) == 0 {
			return 0, fmt.Errorf("axis %q is empty", name)
		}
		for _, v := range vals {
			if !domain[v] {
				return 0, fmt.Errorf("axis %q: %q is not in the %s domain", name, v, s.Suite)
			}
		}
	}
	for _, a := range axes {
		if vals, ok := s.Axes[a.name]; ok {
			size *= len(vals)
		} else {
			size *= len(a.values)
		}
	}
	if s.Limit < 0 {
		return 0, fmt.Errorf("limit must be >= 0")
	}
	if s.Limit > 0 && s.Limit < size {
		size = s.Limit
	}
	return size, nil
}

// Jobs expands the spec into broker jobs for tenant under launchID.
// Job IDs follow the gateway convention g/<tenant>/<launch>/<index> so
// admission and the result pump can attribute every job without side
// tables. Points carry into payloads in the worker wire shapes.
func (s *LaunchSpec) Jobs(tenant, launchID string) ([]tasks.Job, error) {
	if _, err := s.Validate(); err != nil {
		return nil, err
	}
	sweep := launch.NewSweep()
	for _, a := range suiteAxes[s.Suite] {
		if vals, ok := s.Axes[a.name]; ok {
			sweep.Axis(a.name, vals...)
		} else {
			sweep.Axis(a.name, a.values...)
		}
	}
	points := sweep.Points()
	if s.Limit > 0 && s.Limit < len(points) {
		points = points[:s.Limit]
	}
	jobs := make([]tasks.Job, 0, len(points))
	for i, p := range points {
		payload, err := payloadFor(s.Suite, p)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, tasks.Job{
			ID:      fmt.Sprintf("%s%s/%s/%d", jobIDPrefix, tenant, launchID, i),
			Kind:    s.Suite,
			Payload: payload,
		})
	}
	return jobs, nil
}

// payloadFor renders one sweep point as the worker handler's payload:
// run.BootJob or run.GPUJob.
func payloadFor(suite string, p map[string]string) (json.RawMessage, error) {
	switch suite {
	case "boot":
		cores, err := strconv.Atoi(p["cores"])
		if err != nil {
			return nil, fmt.Errorf("bad cores value %q", p["cores"])
		}
		return json.Marshal(run.BootJob{Kernel: p["kernel"], CPU: p["cpu"], Mem: p["mem"], Cores: cores, Boot: p["boot"]})
	case "gpu":
		return json.Marshal(run.GPUJob{App: p["app"], Alloc: p["alloc"]})
	default:
		return nil, fmt.Errorf("unknown suite %q", suite)
	}
}
