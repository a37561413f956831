package analysis

import (
	"fmt"
	"io"
)

// Energy analysis: metric selectors for GroupBy/BarChart over the
// energy columns and a CSV export with joules/watts/EDP.

// MetricJoules selects a run's total energy.
func MetricJoules(r RunRow) float64 { return r.Joules }

// MetricEDP selects a run's energy-delay product.
func MetricEDP(r RunRow) float64 { return r.EDP }

// EnergyCSV writes one line per run with the energy columns alongside
// the run identity: name, the requested params (in order), status,
// outcome, sim_seconds, joules, watts, edp.
func EnergyCSV(w io.Writer, rows []RunRow, params ...string) error {
	header := append([]string{"name"}, params...)
	header = append(header, "status", "outcome", "sim_seconds", "joules", "watts", "edp")
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		rec := []string{r.Name}
		for _, p := range params {
			rec = append(rec, r.Params[p])
		}
		rec = append(rec, r.Status, r.Outcome,
			fmt.Sprintf("%g", r.SimSeconds),
			fmt.Sprintf("%g", r.Joules),
			fmt.Sprintf("%g", r.Watts),
			fmt.Sprintf("%g", r.EDP))
		out = append(out, rec)
	}
	return WriteCSV(w, header, out)
}
