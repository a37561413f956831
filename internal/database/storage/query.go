package storage

// Aggregate computes a numeric summary of one key across documents.
type Aggregate struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count (0 for empty).
func (a Aggregate) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}
