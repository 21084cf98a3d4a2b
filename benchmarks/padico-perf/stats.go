package main

import (
	"math"
	"sort"
)

// median is the middle of xs (mean of the two middle values for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q of the samples at or below it. With 40 samples
// p75 is the 30th, which leaves ten samples beyond it.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return sorted(xs)[rank-1]
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, the way the acceptance driver computes it
// (exclusive method, as Python's statistics.quantiles(xs, n=4)). It
// needs at least two samples; fewer give 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(xs)
	quant := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		if j < 1 {
			j, frac = 1, 0
		} else if j > n-1 {
			j, frac = n-1, 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(quant(3)-quant(1)) / math.Abs(med)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
