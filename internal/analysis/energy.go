package analysis

// Energy analysis: metric selectors for GroupBy/BarChart over the
// energy columns.

// MetricJoules selects a run's total energy.
func MetricJoules(r RunRow) float64 { return r.Joules }

// MetricEDP selects a run's energy-delay product.
func MetricEDP(r RunRow) float64 { return r.EDP }
