package main

import (
	"math"
	"sort"
)

// minTail is the percentile rule: a tail percentile is reported only when
// at least this many samples lie beyond it.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs. The median needs
// one sample; any other quantile needs minTail samples beyond it (p90 needs
// 100 samples), otherwise ok is false.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q < 0 || q > 1 {
		return 0, false
	}
	if q != 0.5 && math.Floor(float64(n)*math.Min(q, 1-q)+1e-9) < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], true
}

// median is the middle sample (the mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
