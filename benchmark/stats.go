package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least p of the samples at or below it. It sorts a
// copy; an empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle sample of xs (the mean of the middle two for an
// even count); an empty input gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the pass spread of a metric: the distance between the first and
// the third quartile of the passes of one invocation, ÷ their median. The
// quartiles are the inclusive ones (position (n−1)·k/4 in the sorted samples,
// interpolated; Python's statistics.quantiles(xs, n=4, method="inclusive")):
// of five passes, the second and the fourth. Like the median that is
// reported, they are unmoved by one disturbed pass in five. Fewer than two
// samples, or a zero median, give 0: nothing to measure, or nothing to scale
// by.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(len(s)-1)) / 4
		j := int(pos)
		if j == len(s)-1 {
			return s[j]
		}
		return s[j] + (pos-float64(j))*(s[j+1]-s[j])
	}
	return (quartile(3) - quartile(1)) / math.Abs(m)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// finite maps NaN and ±Inf to 0 so every metric stays JSON-encodable.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// ratio is a ÷ b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
