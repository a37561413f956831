package experiments

import (
	"fmt"
	"strings"

	"gem5art/internal/analysis"
	"gem5art/internal/core/run"
	"gem5art/internal/workloads"
)

// ParsecStudy holds use case 1's results: the 60-run PARSEC sweep across
// two Ubuntu LTS images and {1,2,8} cores (Table II, Figures 6 and 7).
type ParsecStudy struct {
	Apps  []string
	Cores []int
	// Seconds[os][app][cores] is simulated seconds for that run.
	Seconds map[string]map[string]map[int]float64
}

// RunParsecStudy executes the use-case-1 sweep through the gem5art stack
// with the given parallelism. Apps/cores may be narrowed for quick runs;
// nil means the paper's full set (10 apps x 2 OS x {1,2,8} = 60 runs).
func (e *Env) RunParsecStudy(workers int, apps []string, cores []int) (*ParsecStudy, error) {
	if len(apps) == 0 {
		apps = workloads.ParsecAppNames()
	}
	if len(cores) == 0 {
		cores = workloads.ParsecCoreCounts
	}
	var specs []run.FSSpec
	for _, os := range workloads.OSImages {
		for _, app := range apps {
			for _, n := range cores {
				name := fmt.Sprintf("parsec-%s-%s-%dc", os.Name, app, n)
				specs = append(specs, e.fsSpec(name, "configs/run_parsec.py", os.Kernel,
					e.ParsecDisk[os.Name], []string{
						"benchmark=" + app,
						"cpu=TimingSimpleCPU",
						fmt.Sprintf("num_cpus=%d", n),
						"size=simmedium",
						"os=" + os.Name,
					}))
			}
		}
	}
	rows, err := e.launchAll("use-case-1-parsec", workers, specs)
	if err != nil {
		return nil, err
	}

	study := &ParsecStudy{
		Apps:    apps,
		Cores:   cores,
		Seconds: map[string]map[string]map[int]float64{},
	}
	for _, os := range workloads.OSImages {
		study.Seconds[os.Name] = map[string]map[int]float64{}
		for _, app := range apps {
			study.Seconds[os.Name][app] = map[int]float64{}
		}
	}
	for _, r := range rows {
		if m, ok := study.Seconds[r.Params["os"]]; ok {
			if mm, ok := m[r.Params["benchmark"]]; ok {
				mm[atoiSafe(r.Params["num_cpus"])] = r.SimSeconds
			}
		}
	}
	return study, nil
}

func atoiSafe(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Diff returns Figure 6's quantity for one app and core count: the
// absolute execution-time difference, Ubuntu 18.04 minus 20.04, in
// simulated seconds (positive = 18.04 slower).
func (s *ParsecStudy) Diff(app string, cores int) float64 {
	return s.Seconds[workloads.Ubuntu1804.Name][app][cores] -
		s.Seconds[workloads.Ubuntu2004.Name][app][cores]
}

// Speedup returns Figure 7's quantity: execution time at 1 core over
// execution time at maxCores for one OS.
func (s *ParsecStudy) Speedup(osName, app string, maxCores int) float64 {
	base := s.Seconds[osName][app][1]
	at := s.Seconds[osName][app][maxCores]
	if at == 0 {
		return 0
	}
	return base / at
}

// RenderTable2 prints the use-case-1 configuration (Table II).
func RenderTable2() string {
	var sb strings.Builder
	sb.WriteString("== Table II: Configuration Parameters for Use-Case 1 ==\n")
	rows := [][2]string{
		{"CPU", "TimingSimpleCPU"},
		{"Number of CPUs", "1, 2, 8"},
		{"Memory", "1 channel, DDR3_1600_8x8"},
		{"OS", "Ubuntu 20.04 (kernel 5.4.51), Ubuntu 18.04 (kernel 4.15.18)"},
		{"Workloads", strings.Join(workloads.ParsecAppNames(), ", ")},
		{"Input sizes", "simmedium"},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %s\n", r[0], r[1])
	}
	return sb.String()
}

// RenderFig6 renders Figure 6: per-app absolute time difference between
// the OS images at each core count.
func (s *ParsecStudy) RenderFig6() string {
	var series []analysis.Series
	for _, n := range s.Cores {
		ser := analysis.Series{Name: fmt.Sprintf("%d-core", n)}
		for _, app := range s.Apps {
			ser.Labels = append(ser.Labels, app)
			ser.Values = append(ser.Values, s.Diff(app, n))
		}
		series = append(series, ser)
	}
	return analysis.BarChart(
		"Figure 6: PARSEC execution time difference, Ubuntu 18.04 - 20.04 (seconds)",
		series, 40)
}

// RenderFig7 renders Figure 7: 1->N-core speedup per app per OS.
func (s *ParsecStudy) RenderFig7() string {
	maxCores := s.Cores[len(s.Cores)-1]
	var series []analysis.Series
	for _, os := range workloads.OSImages {
		ser := analysis.Series{Name: os.Name}
		for _, app := range s.Apps {
			ser.Labels = append(ser.Labels, app)
			ser.Values = append(ser.Values, s.Speedup(os.Name, app, maxCores))
		}
		series = append(series, ser)
	}
	return analysis.BarChart(
		fmt.Sprintf("Figure 7: PARSEC speedup, 1 -> %d cores", maxCores), series, 40)
}
