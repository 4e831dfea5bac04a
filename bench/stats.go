package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be trusted (the choosing-metrics rule).
const tailBeyond = 10

// tailPercentile picks the highest percentile of n samples, capped at
// limit, that still has at least tailBeyond samples beyond it. With
// fewer than 2*tailBeyond+1 samples no percentile above the median
// qualifies and the median (50) is returned.
func tailPercentile(n int, limit float64) float64 {
	if n < 2*tailBeyond+1 {
		return 50
	}
	p := 100 * float64(n-1-tailBeyond) / float64(n-1)
	if p > limit {
		p = limit
	}
	if p < 50 {
		p = 50
	}
	return p
}

// quartileSpread is the acceptance statistic of the two-set check: the
// distance between the first and third quartile as a share of the
// median, with the quartiles placed as Python's
// statistics.quantiles(values, n=4) places them (exclusive method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
