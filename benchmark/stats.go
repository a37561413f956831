package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between closest ranks — the "inclusive" method, so
// percentile(vs, 50) is the conventional median and the extremes are
// the minimum and maximum. It returns 0 for an empty sample.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the default "exclusive"
// method: rank i*(n+1)/4, clamped to the sample), because that is the
// function the acceptance rule for this benchmark is stated in. With
// fewer than two values both quartiles are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// 1-based position i*(n+1)/4 between s[j-1] and s[j].
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is compared to.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// counterDelta returns after-before for every series whose name starts
// with prefix, summed: `gem5art_db_op_duration_seconds{op="find"}_sum`
// and its siblings collapse to one number for prefix
// "gem5art_db_op_duration_seconds" and suffix "_sum". Series absent
// from before count from zero (a labelled child is created on first
// use).
func counterDelta(before, after map[string]float64, prefix, suffix string) float64 {
	var d float64
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, suffix) || len(k) < len(prefix)+len(suffix) {
			continue
		}
		// Between family name and suffix there is nothing or a label
		// set; anything else is a longer family name.
		if labels := k[len(prefix) : len(k)-len(suffix)]; labels == "" || labels[0] == '{' {
			d += v - before[k]
		}
	}
	return d
}
