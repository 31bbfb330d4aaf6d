package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns 0
// for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPerMille are the candidates tailPercentile chooses from, highest
// first, in tenths of a percent so the "samples beyond" test is exact
// integer arithmetic.
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so a reported tail is never one or two
// outliers. It returns 0 when even the median has fewer than ten samples
// above it (n < 20).
func tailPercentile(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}
