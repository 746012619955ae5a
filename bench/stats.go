package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile picks the highest of the usual tail percentiles that still
// has at least ten samples beyond it (choosing-metrics guide §1): p99.9
// needs 10 000 samples, p99 1 000, p95 200, p90 100; fewer than 100
// samples leave only the median.
func tailQuantile(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900} {
		if n*(1000-perMille) >= 10*1000 {
			return float64(perMille) / 1000
		}
	}
	return 0.5
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance driver uses for its spread check. Fewer than two values
// return the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4, 1-based; the interval is clamped to the
		// sample range and the weight recomputed, as CPython does.
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the benchmark's bounds are compared against.
// With fewer than four values the quartiles are extrapolations, so the
// full range stands in for them.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if len(xs) < 4 {
		q1, q3 = percentile(xs, 0), percentile(xs, 1)
	}
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
